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

/// The initial FNV state of a section's checksum domain (see
/// kSnapshotMagic): the header's version and kind fields, folded in front
/// of the payload.
std::uint64_t checksum_seed(std::uint32_t kind) {
  WireWriter prefix;
  prefix.u32(kSnapshotVersion);
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

// --- reader primitives ----------------------------------------------------

void WireReader::fetch(std::size_t n, const char* what) {
  RON_CHECK(n <= remaining(), "wire: truncated reading "
                                  << what << " (" << n << " bytes wanted, "
                                  << remaining() << " left)");
  refill();
}

std::uint64_t WireReader::varint_long() {
  std::uint64_t v = 0;
  for (std::size_t i = 0;; ++i) {
    need(1, "varint");
    const std::uint8_t b = data_[pos_++];
    if (i + 1 == kMaxVarintBytes) {
      // The last byte carries bit 63 alone.
      RON_CHECK(b < 0x80, "wire: varint longer than " << kMaxVarintBytes
                                                      << " bytes");
      RON_CHECK(b <= 1, "wire: varint past 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
    if (b < 0x80) {
      RON_CHECK(b != 0 || i == 0,
                "wire: varint of " << i + 1 << " bytes ends in a zero byte");
      return v;
    }
  }
}

void WireReader::refill() {
  RON_CHECK(false, "wire: " << unfetched_
                            << " unfetched bytes and no file to fetch them");
}

std::string WireReader::str() {
  const std::uint64_t len = u64();
  RON_CHECK(len <= remaining(), "wire: truncated reading str body ("
                                    << len << " bytes wanted, " << remaining()
                                    << " left)");
  std::string s;
  s.reserve(static_cast<std::size_t>(len));
  while (s.size() < len) {
    if (pos_ == data_.size()) refill();
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(len - s.size(), data_.size() - pos_));
    s.append(reinterpret_cast<const char*>(data_.data() + pos_), take);
    pos_ += take;
  }
  return s;
}

// --- streaming writer -----------------------------------------------------

WireStreamWriter::WireStreamWriter(const std::string& path, std::uint32_t kind)
    : WireWriter(kStreamChunkBytes),
      file_(path),
      sum_(checksum_seed(kind)) {
  WireWriter header;
  for (std::uint8_t b : kSnapshotMagic) header.u8(b);
  header.u32(kSnapshotVersion);
  header.u32(kind);
  header.u64(0);  // payload length — patched by finish()
  header.u64(0);  // checksum — patched by finish()
  write_stream_bytes(file_.stream(), header.bytes(), "header");
  buf_.reserve(kStreamChunkBytes + sizeof(std::uint64_t));
}

void WireStreamWriter::spill() {
  sum_ = fnv1a64_continue(sum_, buf_);
  write_stream_bytes(file_.stream(), buf_, "payload chunk");
  spilled_ += buf_.size();
  buf_.clear();
}

void WireStreamWriter::finish() {
  RON_CHECK(!finished_, "snapshot: finish() called twice on "
                            << file_.path());
  spill();
  // Patch the placeholder length/checksum fields (byte offsets 16 and 24:
  // magic[8] + version u32 + kind u32 precede them).
  WireWriter tail;
  tail.u64(spilled_);
  tail.u64(sum_);
  std::ofstream& out = file_.stream();
  out.seekp(16, std::ios::beg);
  RON_CHECK(out.good(), "snapshot: cannot seek to patch header of "
                            << file_.path());
  write_stream_bytes(out, tail.bytes(), "header patch");
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
  RON_CHECK(header_.version == kSnapshotVersion,
            "snapshot: " << path_ << " has format version "
                         << header_.version << ", this build reads only "
                         << kSnapshotVersion
                         << "; rebuild the file from its recipe "
                            "(ron_oracle build --scenario SPEC)");
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
  sum_ = checksum_seed(header_.kind);
  unfetched_ = header_.payload_bytes;
  // Uninitialized: every byte the parser sees is fetched first.
  capacity_ = static_cast<std::size_t>(
      std::min<std::uint64_t>(kStreamChunkBytes, header_.payload_bytes));
  window_ = std::make_unique_for_overwrite<std::uint8_t[]>(capacity_);
}

void WireStreamReader::refill() {
  // Slide the unread tail to the front, then fill the window up to its
  // capacity or the payload boundary, folding fetched bytes into the
  // running checksum. That covers the read that ran short: it wants at
  // most min(remaining(), 8) bytes, and capacity_ is at least that.
  const std::size_t tail = data_.size() - pos_;
  std::memmove(window_.get(), window_.get() + pos_, tail);
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(capacity_ - tail, unfetched_));
  const std::span<std::uint8_t> fresh(window_.get() + tail, want);
  read_stream_bytes(in_, fresh, "payload");
  sum_ = fnv1a64_continue(sum_, fresh);
  unfetched_ -= want;
  data_ = std::span<const std::uint8_t>(window_.get(), tail + want);
  pos_ = 0;
}

void WireStreamReader::drain() {
  pos_ = data_.size();
  while (unfetched_ > 0) {
    refill();
    pos_ = data_.size();
  }
}

void WireStreamReader::check_consumed() const {
  RON_CHECK(sum_ == header_.checksum,
            "snapshot: " << path_ << " checksum mismatch (corrupt payload)");
}

}  // namespace ron
