// Per-machine miniature filesystem.
//
// Holds executable files (resolved through the ExecRegistry), filter
// description/template files, filter log files under /usr/tmp, and files
// staged by the simulated rcp. Access control follows the paper's policy
// (§3.5.5): plain account-based owner checks, no special monitor privilege.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/types.h"
#include "util/bytes.h"
#include "util/result.h"

namespace dpm::kernel {

/// A file's bytes: a size plus a list of fixed-capacity blocks that files
/// share until one of them writes (DESIGN.md §5). Every block but the last
/// is full. A file's first block grows by doubling up to kBlockBytes, so a
/// small file stays small; every later block is allocated at full size, and
/// an append fills the last block and then adds new ones, so no byte past
/// the first block moves once written. Copying a FileContent copies block
/// pointers, and a write into a block another file still holds clones the
/// block first.
class FileContent {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  FileContent() = default;
  explicit FileContent(util::Bytes bytes);

  std::size_t size() const { return size_; }
  void clear();

  /// Writes `n` bytes at `offset` (at most size()): overwrites what is
  /// there and appends the rest.
  void write(std::size_t offset, const std::uint8_t* data, std::size_t n);

  /// The up to `n` bytes from `offset` on.
  util::Bytes read(std::size_t offset, std::size_t n) const;
  std::string text() const;

  /// Calls `f(std::string_view)` on each block's bytes, in file order.
  template <typename F>
  void for_each_block(F&& f) const {
    for (const auto& b : blocks_) {
      f(std::string_view(reinterpret_cast<const char*>(b->data()), b->size()));
    }
  }

 private:
  using Block = std::vector<std::uint8_t>;

  /// The block at `i`, cloned first when another file shares it.
  Block& own(std::size_t i);

  std::vector<std::shared_ptr<Block>> blocks_;
  std::size_t size_ = 0;
};

struct FileData {
  FileContent content;
  Uid owner = kSuperUser;
  bool world_readable = true;
  /// Executable files name a program in the ExecRegistry instead of
  /// carrying machine code.
  std::optional<std::string> program;
};

class FileSystem {
 public:
  /// Creates or replaces a regular file.
  void put(const std::string& path, util::Bytes content, Uid owner,
           bool world_readable = true);
  void put_text(const std::string& path, const std::string& text,
                Uid owner = kSuperUser, bool world_readable = true);

  /// Installs an executable file referring to a registered program.
  void put_executable(const std::string& path, const std::string& program,
                      Uid owner = kSuperUser);

  bool exists(const std::string& path) const;

  /// The file at `path` with no access check (descriptors checked at
  /// open); nullptr when absent.
  const FileData* find(const std::string& path) const;

  /// Read access check per §3.5.5.
  util::SysResult<const FileData*> open_read(const std::string& path,
                                             Uid uid) const;

  /// Returns the mutable file, creating it if absent (write access check).
  util::SysResult<FileData*> open_write(const std::string& path, Uid uid,
                                        bool truncate);

  util::SysResult<void> remove(const std::string& path, Uid uid);

  /// Whole-file convenience reads for the harness and analysis code.
  std::optional<std::string> read_text(const std::string& path) const;
  std::optional<util::Bytes> read_bytes(const std::string& path) const;

  std::vector<std::string> list(const std::string& prefix) const;

  /// Whole-table view (sorted by path) for replay digests and backups.
  const std::map<std::string, FileData>& files() const { return files_; }

 private:
  std::map<std::string, FileData> files_;
};

}  // namespace dpm::kernel
