#include "analysis/predicates/service.h"

#include "filter/filter_program.h"

namespace dpm::analysis::pred {

namespace {

/// Keeps the bundle alive alongside the sink the filter layer holds.
class BundleSink : public filter::RecordSink {
 public:
  explicit BundleSink(std::shared_ptr<LivePredicates> bundle)
      : bundle_(std::move(bundle)), sink_(bundle_->live) {}

  void on_view(const filter::RecordView& v, const filter::WirePlan& plan,
               const std::string_view* strings,
               const filter::Descriptions& desc) override {
    sink_.on_view(v, plan, strings, desc);
  }
  void on_record(const filter::Record& rec) override { sink_.on_record(rec); }

 private:
  std::shared_ptr<LivePredicates> bundle_;
  live::LiveRecordSink sink_;
};

}  // namespace

std::shared_ptr<LivePredicates> install_live_predicates(
    kernel::World& world, const filter::Descriptions& desc,
    live::LiveConfig live_cfg, DetectorConfig det_cfg) {
  auto bundle = std::make_shared<LivePredicates>(desc, live_cfg, det_cfg,
                                                 &world.obs(),
                                                 world.provenance());
  filter::install_live_sink(world, std::make_shared<BundleSink>(bundle));
  world.set_service(kPredicateService, bundle);
  return bundle;
}

std::shared_ptr<LivePredicates> predicate_service(kernel::World& world) {
  return std::static_pointer_cast<LivePredicates>(
      world.service(kPredicateService));
}

const filter::Descriptions& standard_descriptions() {
  static const filter::Descriptions desc = [] {
    auto parsed = filter::Descriptions::parse(
        filter::default_descriptions_text());
    return parsed ? std::move(*parsed) : filter::Descriptions{};
  }();
  return desc;
}

}  // namespace dpm::analysis::pred
