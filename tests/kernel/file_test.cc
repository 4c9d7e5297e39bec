// Filesystem + file descriptor + rcp (§3.5.3) + protection (§3.5.5).
#include <gtest/gtest.h>

#include <algorithm>

#include "kernel/file_system.h"
#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "testing.h"

namespace dpm::kernel {
namespace {

using util::Err;

class FileTest : public ::testing::Test {
 protected:
  FileTest() : world_(dpm::testing::quick_config()) {
    machines_ = dpm::testing::add_machines(world_, {"red", "green"});
    world_.add_account_everywhere(100);
    world_.add_account_everywhere(200);
  }
  World world_;
  std::vector<MachineId> machines_;
};

TEST_F(FileTest, WriteReadRoundTrip) {
  std::string got;
  (void)world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
    auto w = sys.open("data.txt", Sys::OpenMode::write_trunc);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(sys.write(*w, "line one\nline two\n").ok());
    ASSERT_TRUE(sys.close(*w).ok());
    auto r = sys.open("data.txt", Sys::OpenMode::read);
    ASSERT_TRUE(r.ok());
    auto data = sys.read(*r, 4096);
    ASSERT_TRUE(data.ok());
    got = util::to_string(*data);
  });
  world_.run();
  EXPECT_EQ(got, "line one\nline two\n");
}

TEST_F(FileTest, AppendModePreservesContent) {
  (void)world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
    auto a = sys.open("log", Sys::OpenMode::write_trunc);
    (void)sys.write(*a, "first\n");
    (void)sys.close(*a);
    auto b = sys.open("log", Sys::OpenMode::append);
    (void)sys.write(*b, "second\n");
    (void)sys.close(*b);
  });
  world_.run();
  EXPECT_EQ(world_.machine(machines_[0]).fs.read_text("log").value(),
            "first\nsecond\n");
}

TEST_F(FileTest, ReadMissingIsEnoent) {
  Err result = Err::ok;
  (void)world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
    result = sys.open("ghost", Sys::OpenMode::read).error();
  });
  world_.run();
  EXPECT_EQ(result, Err::enoent);
}

TEST_F(FileTest, ProtectionOnPrivateFiles) {
  world_.machine(machines_[0]).fs.put_text("secret", "shh", /*owner=*/100,
                                           /*world_readable=*/false);
  Err other_read = Err::ok, other_write = Err::ok, owner_read = Err::ok;
  (void)world_.spawn(machines_[0], "other", 200, [&](Sys& sys) {
    other_read = sys.open("secret", Sys::OpenMode::read).error();
    other_write = sys.open("secret", Sys::OpenMode::write_trunc).error();
  });
  (void)world_.spawn(machines_[0], "owner", 100, [&](Sys& sys) {
    owner_read = sys.open("secret", Sys::OpenMode::read).error();
  });
  world_.run();
  EXPECT_EQ(other_read, Err::eacces);
  EXPECT_EQ(other_write, Err::eacces);
  EXPECT_EQ(owner_read, Err::ok);
}

TEST_F(FileTest, RcpCopiesAcrossMachines) {
  world_.machine(machines_[0]).fs.put_text("prog.dat", "payload", 100);
  Err result = Err::eperm;
  (void)world_.spawn(machines_[0], "copier", 100, [&](Sys& sys) {
    result = sys.rcp("red", "prog.dat", "green", "prog.dat").error();
  });
  world_.run();
  EXPECT_EQ(result, Err::ok);
  EXPECT_EQ(world_.machine(machines_[1]).fs.read_text("prog.dat").value(),
            "payload");
}

TEST_F(FileTest, RcpPreservesExecutableness) {
  world_.programs().register_program(
      "noop", [](const std::vector<std::string>&) -> ProcessMain {
        return [](Sys&) {};
      });
  world_.machine(machines_[0]).fs.put_executable("bin/noop", "noop");
  (void)world_.spawn(machines_[0], "copier", 100, [&](Sys& sys) {
    ASSERT_TRUE(sys.rcp("red", "bin/noop", "green", "bin/noop").ok());
  });
  world_.run();
  auto pid = world_.spawn_file(machines_[1], "bin/noop", 100, {});
  EXPECT_TRUE(pid.ok());
  world_.run();
}

TEST_F(FileTest, RcpUnknownHostFails) {
  Err result = Err::ok;
  (void)world_.spawn(machines_[0], "copier", 100, [&](Sys& sys) {
    result = sys.rcp("red", "x", "mauve", "x").error();
  });
  world_.run();
  EXPECT_EQ(result, Err::enoent);
}

TEST_F(FileTest, SharedOffsetAcrossFork) {
  // Open files are shared across fork (same table entry): the child's
  // read continues at the parent's offset.
  world_.machine(machines_[0]).fs.put_text("seq", "abcdef", 100);
  std::string parent_part, child_part;
  (void)world_.spawn(machines_[0], "parent", 100, [&](Sys& sys) {
    auto fd = sys.open("seq", Sys::OpenMode::read);
    ASSERT_TRUE(fd.ok());
    parent_part = util::to_string(*sys.read(*fd, 3));
    auto child = sys.fork([fd = *fd, &child_part](Sys& csys) {
      child_part = util::to_string(*csys.read(fd, 3));
    });
    ASSERT_TRUE(child.ok());
    (void)sys.waitchange(true);
  });
  world_.run();
  EXPECT_EQ(parent_part, "abc");
  EXPECT_EQ(child_part, "def");
}

TEST_F(FileTest, UnlinkRespectsOwnership) {
  world_.machine(machines_[0]).fs.put_text("mine", "x", 100);
  Err other = Err::ok, owner = Err::eperm;
  (void)world_.spawn(machines_[0], "other", 200, [&](Sys& sys) {
    other = sys.unlink("mine").error();
  });
  (void)world_.spawn(machines_[0], "owner", 100, [&](Sys& sys) {
    sys.sleep(util::msec(1));
    owner = sys.unlink("mine").error();
  });
  world_.run();
  EXPECT_EQ(other, Err::eacces);
  EXPECT_EQ(owner, Err::ok);
  EXPECT_FALSE(world_.machine(machines_[0]).fs.exists("mine"));
}

TEST_F(FileTest, HostPipeStdio) {
  auto in = std::make_shared<HostPipe>();
  auto out = std::make_shared<HostPipe>();
  SpawnOpts opts;
  opts.stdin_fd = Descriptor::for_pipe(in);
  opts.stdout_fd = Descriptor::for_pipe(out);
  in->host_write("echo me\n");
  in->closed = true;
  (void)world_.spawn(machines_[0], "echoer", 100, [&](Sys& sys) {
    for (;;) {
      auto line = sys.read_line();
      if (!line.ok() || !line->has_value()) break;
      (void)sys.print("got: " + **line + "\n");
    }
  }, opts);
  world_.run();
  EXPECT_EQ(out->host_drain(), "got: echo me\n");
}

// ---- the block file store ------------------------------------------------

constexpr std::size_t kBlock = FileContent::kBlockBytes;

/// `n` bytes of a pattern that repeats neither per block nor per chunk.
std::string pattern(std::size_t n, unsigned salt = 0) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>((i * 131 + i / 251 + salt) & 0xff);
  }
  return out;
}

TEST_F(FileTest, ChunkedWritesAcrossBlocksReadBackWhole) {
  // Chunk sizes that straddle every block boundary at different offsets.
  const std::string want = pattern(200 * 1024);
  const std::size_t chunks[] = {1, 4095, 65536, 7, 30001, 65535, 2};
  std::string got;
  (void)world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
    auto w = sys.open("big", Sys::OpenMode::write_trunc);
    ASSERT_TRUE(w.ok());
    for (std::size_t at = 0, i = 0; at < want.size(); ++i) {
      const std::size_t n = std::min(chunks[i % std::size(chunks)], want.size() - at);
      ASSERT_EQ(*sys.write(*w, std::string_view(want).substr(at, n)), n);
      at += n;
    }
    auto r = sys.open("big", Sys::OpenMode::read);
    ASSERT_TRUE(r.ok());
    for (;;) {
      auto chunk = sys.read(*r, 4096);
      ASSERT_TRUE(chunk.ok());
      if (chunk->empty()) break;
      got += util::to_string(*chunk);
    }
  });
  world_.run();
  EXPECT_TRUE(got == want);
  EXPECT_TRUE(world_.machine(machines_[0]).fs.read_text("big").value() == want);
}

TEST_F(FileTest, RcpCopyKeepsItsBytesWhenTheSourceChanges) {
  // The source's writer keeps an fd at offset 10, inside the first block,
  // which the copy shares after rcp.
  const std::string head = pattern(10, 1);
  const std::string body = pattern(150 * 1024, 2);
  (void)world_.spawn(machines_[0], "src", 100, [&](Sys& sys) {
    auto w = sys.open("log", Sys::OpenMode::write_trunc);
    ASSERT_TRUE(sys.write(*w, head).ok());
    auto a = sys.open("log", Sys::OpenMode::append);
    ASSERT_TRUE(sys.write(*a, body).ok());
    ASSERT_TRUE(sys.rcp("red", "log", "green", "copy").ok());
    ASSERT_TRUE(sys.write(*w, "XYZ").ok());  // into the shared first block
    ASSERT_TRUE(sys.write(*a, "tail").ok());  // onto the shared last block
  });
  world_.run();
  std::string src = head + body + "tail";
  src.replace(10, 3, "XYZ");
  EXPECT_TRUE(world_.machine(machines_[1]).fs.read_text("copy").value() == head + body);
  EXPECT_TRUE(world_.machine(machines_[0]).fs.read_text("log").value() == src);
}

TEST_F(FileTest, RcpSourceKeepsItsBytesWhenTheCopyChanges) {
  // The roles reversed: the copy's writer holds an fd at offset 10 across
  // the rcp that replaces the copy's bytes with the source's blocks.
  const std::string orig = pattern(150 * 1024, 3);
  world_.machine(machines_[0]).fs.put_text("log", orig, 100);
  (void)world_.spawn(machines_[1], "dst", 100, [&](Sys& sys) {
    auto w = sys.open("copy", Sys::OpenMode::write_trunc);
    ASSERT_TRUE(sys.write(*w, pattern(10, 4)).ok());
    ASSERT_TRUE(sys.rcp("red", "log", "green", "copy").ok());
    ASSERT_TRUE(sys.write(*w, "XYZ").ok());
    auto a = sys.open("copy", Sys::OpenMode::append);
    ASSERT_TRUE(sys.write(*a, "tail").ok());
  });
  world_.run();
  std::string copy = orig + "tail";
  copy.replace(10, 3, "XYZ");
  EXPECT_TRUE(world_.machine(machines_[1]).fs.read_text("copy").value() == copy);
  EXPECT_TRUE(world_.machine(machines_[0]).fs.read_text("log").value() == orig);
}

TEST_F(FileTest, AppendOnAMultiBlockFileWritesAtItsEnd) {
  const std::string orig = pattern(2 * kBlock + 17, 5);
  world_.machine(machines_[0]).fs.put_text("log", orig, 100);
  (void)world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
    auto a = sys.open("log", Sys::OpenMode::append);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(sys.write(*a, "end").ok());
  });
  world_.run();
  EXPECT_TRUE(world_.machine(machines_[0]).fs.read_text("log").value() == orig + "end");
}

TEST_F(FileTest, AppendedFileDigestsLikeOnePut) {
  // Many small appends and one put of the same bytes hash the same in a
  // checkpoint: the digest does not see the block layout.
  const std::string text = pattern(3 * kBlock + 5, 6);
  (void)world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
    auto w = sys.open("log", Sys::OpenMode::write_trunc);
    for (std::size_t at = 0; at < text.size(); at += 1000) {
      ASSERT_TRUE(sys.write(*w, std::string_view(text).substr(at, 1000)).ok());
    }
  });
  world_.run();
  World other(dpm::testing::quick_config());
  dpm::testing::add_machines(other, {"red", "green"});
  other.machine(machines_[0]).fs.put_text("log", text, 100);
  auto files = [](const World& w) {
    for (const auto& c : w.checkpoint().components) {
      if (c.name == "files") return c.hash;
    }
    return std::uint64_t{0};
  };
  EXPECT_NE(files(world_), 0u);
  EXPECT_EQ(files(world_), files(other));
}

}  // namespace
}  // namespace dpm::kernel
