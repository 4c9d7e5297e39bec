#include "kernel/file_system.h"

#include <algorithm>
#include <cstring>

namespace dpm::kernel {

FileContent::FileContent(util::Bytes bytes) : size_(bytes.size()) {
  if (bytes.empty()) return;
  if (bytes.size() <= kBlockBytes) {
    blocks_.push_back(std::make_shared<Block>(std::move(bytes)));
    return;
  }
  for (std::size_t at = 0; at < bytes.size(); at += kBlockBytes) {
    const std::size_t n = std::min(kBlockBytes, bytes.size() - at);
    blocks_.push_back(std::make_shared<Block>(bytes.begin() + at,
                                              bytes.begin() + at + n));
  }
}

void FileContent::clear() {
  blocks_.clear();
  size_ = 0;
}

FileContent::Block& FileContent::own(std::size_t i) {
  std::shared_ptr<Block>& b = blocks_[i];
  if (b.use_count() > 1) b = std::make_shared<Block>(*b);
  return *b;
}

void FileContent::write(std::size_t offset, const std::uint8_t* data,
                        std::size_t n) {
  const std::size_t end = offset + n;
  std::size_t at = offset;
  // Overwrite the bytes already there, block by block.
  for (const std::size_t stop = std::min(end, size_); at < stop;) {
    Block& b = own(at / kBlockBytes);
    const std::size_t in = at % kBlockBytes;
    const std::size_t k = std::min(stop - at, b.size() - in);
    std::memcpy(b.data() + in, data + (at - offset), k);
    at += k;
  }
  // Append the rest: fill the last block, then add new ones. Only a
  // file's first block grows by doubling; a later one is allocated at
  // full size, so no byte past the first block ever moves.
  while (at < end) {
    if (blocks_.empty() || blocks_.back()->size() == kBlockBytes) {
      blocks_.push_back(std::make_shared<Block>());
    }
    Block& b = own(blocks_.size() - 1);
    const std::size_t k = std::min(end - at, kBlockBytes - b.size());
    if (b.capacity() < b.size() + k) {
      b.reserve(blocks_.size() > 1
                    ? kBlockBytes
                    : std::min(kBlockBytes, std::max(2 * b.capacity(), b.size() + k)));
    }
    b.insert(b.end(), data + (at - offset), data + (at - offset) + k);
    at += k;
    size_ += k;
  }
}

util::Bytes FileContent::read(std::size_t offset, std::size_t n) const {
  if (offset >= size_) return {};
  n = std::min(n, size_ - offset);
  util::Bytes out(n);
  for (std::size_t at = offset; at < offset + n;) {
    const Block& b = *blocks_[at / kBlockBytes];
    const std::size_t in = at % kBlockBytes;
    const std::size_t k = std::min(offset + n - at, b.size() - in);
    std::memcpy(out.data() + (at - offset), b.data() + in, k);
    at += k;
  }
  return out;
}

std::string FileContent::text() const {
  std::string out;
  out.reserve(size_);
  for_each_block([&out](std::string_view b) { out.append(b); });
  return out;
}

void FileSystem::put(const std::string& path, util::Bytes content, Uid owner,
                     bool world_readable) {
  files_[path] = FileData{FileContent(std::move(content)), owner,
                          world_readable, std::nullopt};
}

void FileSystem::put_text(const std::string& path, const std::string& text,
                          Uid owner, bool world_readable) {
  put(path, util::to_bytes(text), owner, world_readable);
}

void FileSystem::put_executable(const std::string& path,
                                const std::string& program, Uid owner) {
  FileData f;
  f.owner = owner;
  f.world_readable = true;
  f.program = program;
  files_[path] = std::move(f);
}

bool FileSystem::exists(const std::string& path) const {
  return files_.count(path) != 0;
}

const FileData* FileSystem::find(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

util::SysResult<const FileData*> FileSystem::open_read(const std::string& path,
                                                       Uid uid) const {
  auto it = files_.find(path);
  if (it == files_.end()) return util::Err::enoent;
  const FileData& f = it->second;
  if (!f.world_readable && f.owner != uid && uid != kSuperUser) {
    return util::Err::eacces;
  }
  return &f;
}

util::SysResult<FileData*> FileSystem::open_write(const std::string& path,
                                                  Uid uid, bool truncate) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    FileData f;
    f.owner = uid;
    it = files_.emplace(path, std::move(f)).first;
  } else if (it->second.owner != uid && uid != kSuperUser) {
    return util::Err::eacces;
  } else if (truncate) {
    it->second.content.clear();
  }
  return &it->second;
}

util::SysResult<void> FileSystem::remove(const std::string& path, Uid uid) {
  auto it = files_.find(path);
  if (it == files_.end()) return util::Err::enoent;
  if (it->second.owner != uid && uid != kSuperUser) return util::Err::eacces;
  files_.erase(it);
  return {};
}

std::optional<std::string> FileSystem::read_text(const std::string& path) const {
  const FileData* f = find(path);
  if (!f) return std::nullopt;
  return f->content.text();
}

std::optional<util::Bytes> FileSystem::read_bytes(const std::string& path) const {
  const FileData* f = find(path);
  if (!f) return std::nullopt;
  return f->content.read(0, f->content.size());
}

std::vector<std::string> FileSystem::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, f] : files_) {
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;
}

}  // namespace dpm::kernel
