#include "oracle/wire.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>

namespace ron {

void write_stream_bytes(std::ostream& out, std::span<const std::uint8_t> bytes,
                        const char* what) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  RON_CHECK(out.good(), "snapshot: short write (" << what << ", "
                                                  << bytes.size()
                                                  << " bytes)");
}

void read_stream_bytes(std::istream& in, std::span<std::uint8_t> bytes,
                       const char* what) {
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  RON_CHECK(static_cast<std::size_t>(in.gcount()) == bytes.size(),
            "snapshot: short read (" << what << ", wanted " << bytes.size()
                                     << " bytes, got " << in.gcount() << ")");
}

std::size_t read_stream_prefix(std::istream& in,
                               std::span<std::uint8_t> bytes) {
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  // A short read at EOF sets failbit+eofbit and is the expected "foreign or
  // short file" answer. badbit is different: the underlying stream FAILED
  // mid-read (disk error, throwing streambuf), and returning the partial
  // count would make a kind-sniffing caller mistake a broken device for a
  // short file — that must surface as an error, not a guess.
  RON_CHECK(!in.bad(), "snapshot: stream error reading " << bytes.size()
                           << "-byte prefix (got " << in.gcount() << ")");
  return static_cast<std::size_t>(in.gcount());
}

std::uint64_t fnv1a64_continue(std::uint64_t state,
                               std::span<const std::uint8_t> bytes) {
  for (std::uint8_t b : bytes) {
    state ^= b;
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  return fnv1a64_continue(kFnv1a64Basis, bytes);
}

namespace {

/// The initial FNV state of a version's checksum domain (see
/// kSnapshotVersion): v1 starts at the basis, v2 folds the header's
/// version and kind fields in front of the payload.
std::uint64_t checksum_seed(std::uint32_t version, std::uint32_t kind) {
  if (version == kSnapshotVersionV1) return kFnv1a64Basis;
  WireWriter prefix;
  prefix.u32(version);
  prefix.u32(kind);
  return fnv1a64(prefix.bytes());
}

}  // namespace

// --- atomic replacement ---------------------------------------------------

namespace {

/// `path` + ".tmp.<pid>.<n>": a sibling, so the rename never crosses a
/// filesystem, and unique per writer, so concurrent saves never share one.
std::string temp_path_for(const std::string& path) {
  static std::atomic<std::uint64_t> next{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(next.fetch_add(1));
}

}  // namespace

AtomicFile::AtomicFile(const std::string& path)
    : path_(path),
      temp_(temp_path_for(path)),
      out_(temp_, std::ios::binary | std::ios::trunc) {
  RON_CHECK(out_.good(), "snapshot: cannot open " << temp_
                             << " for writing (to replace " << path_
                             << ")");
}

AtomicFile::~AtomicFile() {
  if (committed_) return;
  out_.close();
  std::remove(temp_.c_str());
}

void AtomicFile::commit() {
  RON_CHECK(!committed_, "snapshot: " << path_ << " committed twice");
  out_.flush();
  RON_CHECK(out_.good(), "snapshot: short write to " << temp_);
  out_.close();
  const int fd = ::open(temp_.c_str(), O_RDONLY);
  RON_CHECK(fd >= 0, "snapshot: cannot reopen " << temp_ << " to fsync");
  const int synced = ::fsync(fd);
  ::close(fd);
  RON_CHECK(synced == 0, "snapshot: fsync of " << temp_ << " failed");
  RON_CHECK(std::rename(temp_.c_str(), path_.c_str()) == 0,
            "snapshot: cannot rename " << temp_ << " over " << path_);
  committed_ = true;
  // Best effort: the new file is in place either way, and not every
  // filesystem can fsync a directory.
  const std::filesystem::path dir =
      std::filesystem::path(path_).parent_path();
  const int dir_fd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
}

// --- streaming writer -----------------------------------------------------

WireStreamWriter::WireStreamWriter(const std::string& path, std::uint32_t kind)
    : file_(path),
      out_(file_.stream()),
      sum_(checksum_seed(kSnapshotVersion, kind)) {
  WireWriter header;
  for (std::uint8_t b : kSnapshotMagic) header.u8(b);
  header.u32(kSnapshotVersion);
  header.u32(kind);
  header.u64(0);  // payload length — patched by finish()
  header.u64(0);  // checksum — patched by finish()
  write_stream_bytes(out_, header.bytes(), "header");
  chunk_.reserve(kStreamChunkBytes + sizeof(std::uint64_t));
}

WireStreamWriter::~WireStreamWriter() = default;

void WireStreamWriter::flush_chunk() {
  if (chunk_.empty()) return;
  sum_ = fnv1a64_continue(sum_, chunk_);
  write_stream_bytes(out_, chunk_, "payload chunk");
  total_ += chunk_.size();
  chunk_.clear();
}

void WireStreamWriter::finish() {
  RON_CHECK(!finished_, "snapshot: finish() called twice on "
                            << file_.path());
  flush_chunk();
  // Patch the placeholder length/checksum fields (byte offsets 16 and 24:
  // magic[8] + version u32 + kind u32 precede them).
  WireWriter tail;
  tail.u64(total_);
  tail.u64(sum_);
  out_.seekp(16, std::ios::beg);
  RON_CHECK(out_.good(), "snapshot: cannot seek to patch header of "
                             << file_.path());
  write_stream_bytes(out_, tail.bytes(), "header patch");
  file_.commit();
  finished_ = true;
}

// --- streaming reader -----------------------------------------------------

WireStreamReader::WireStreamReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {
  RON_CHECK(in_.good(), "snapshot: cannot open " << path_);
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  RON_CHECK(size >= 0, "snapshot: cannot stat " << path_);
  in_.seekg(0, std::ios::beg);
  RON_CHECK(static_cast<std::uint64_t>(size) >= kSnapshotHeaderBytes,
            "snapshot: " << path_ << " is " << size
                         << " bytes, smaller than the header");
  std::uint8_t hdr[kSnapshotHeaderBytes];
  read_stream_bytes(in_, hdr, "header");
  RON_CHECK(std::memcmp(hdr, kSnapshotMagic, sizeof(kSnapshotMagic)) == 0,
            "snapshot: " << path_
                         << " has wrong magic (not a RON snapshot)");
  WireReader rd(std::span(hdr + sizeof(kSnapshotMagic),
                          kSnapshotHeaderBytes - sizeof(kSnapshotMagic)));
  header_.version = rd.u32();
  RON_CHECK(header_.version == kSnapshotVersion ||
                header_.version == kSnapshotVersionV1,
            "snapshot: " << path_ << " has format version "
                         << header_.version << ", this build reads "
                         << kSnapshotVersionV1 << " and " << kSnapshotVersion);
  header_.kind = rd.u32();
  header_.payload_bytes = rd.u64();
  header_.checksum = rd.u64();
  RON_CHECK(static_cast<std::uint64_t>(size) - kSnapshotHeaderBytes ==
                header_.payload_bytes,
            "snapshot: " << path_ << " payload is "
                         << static_cast<std::uint64_t>(size) -
                                kSnapshotHeaderBytes
                         << " bytes, header promises "
                         << header_.payload_bytes
                         << " (truncated or trailing garbage)");
  sum_ = checksum_seed(header_.version, header_.kind);
}

void WireStreamReader::need(std::size_t n, const char* what) {
  if (avail_ - pos_ >= n) return;
  if (buf_.empty()) buf_.resize(kStreamChunkBytes);
  RON_CHECK(n <= buf_.size(), "snapshot: oversized read of " << n
                                  << " bytes (" << what << ")");
  // Slide the unread tail to the front, then refill greedily up to the
  // payload boundary, folding fetched bytes into the running checksum.
  const std::size_t tail = avail_ - pos_;
  if (tail > 0 && pos_ > 0) std::memmove(buf_.data(), buf_.data() + pos_,
                                         tail);
  pos_ = 0;
  avail_ = tail;
  const std::uint64_t left = header_.payload_bytes - fetched_;
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(buf_.size() - avail_, left));
  if (want > 0) {
    read_stream_bytes(in_, std::span(buf_.data() + avail_, want), what);
    sum_ = fnv1a64_continue(
        sum_, std::span<const std::uint8_t>(buf_.data() + avail_, want));
    fetched_ += want;
    avail_ += want;
  }
  RON_CHECK(avail_ >= n, "snapshot truncated reading "
                             << what << " (" << n << " bytes wanted, "
                             << avail_ << " left)");
}

std::string WireStreamReader::str() {
  const std::uint64_t len = u64();
  RON_CHECK(len <= remaining(), "snapshot truncated reading str body ("
                                    << len << " bytes wanted, " << remaining()
                                    << " left)");
  std::string s;
  s.reserve(static_cast<std::size_t>(len));
  std::uint64_t left = len;
  while (left > 0) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, kStreamChunkBytes / 2));
    need(take, "str body");
    s.append(reinterpret_cast<const char*>(buf_.data() + pos_), take);
    pos_ += take;
    consumed_ += take;
    left -= take;
  }
  return s;
}

void WireStreamReader::drain() {
  while (!done()) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining(), kStreamChunkBytes / 2));
    need(take, "payload");
    pos_ += take;
    consumed_ += take;
  }
}

void WireStreamReader::expect_done() {
  RON_CHECK(done(), "snapshot: " << remaining() << " trailing bytes");
  RON_CHECK(sum_ == header_.checksum,
            "snapshot: " << path_ << " checksum mismatch (corrupt payload)");
}

}  // namespace ron
