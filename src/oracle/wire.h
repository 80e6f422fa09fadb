// Little-endian wire primitives for snapshots and served frames.
//
// Snapshots must load safely from untrusted bytes: a truncated download, a
// bit-flipped disk block or a file of the wrong kind has to surface as
// ron::Error, never as UB or an unbounded allocation. WireWriter builds a
// buffer in memory (served frames); WireReader is a bounds-checked cursor
// over loaded bytes — every read validates the remaining length first, and
// every count that sizes an allocation is validated against the bytes that
// could possibly back it (see read_count). WireStreamWriter and
// WireStreamReader offer the same primitives over a file and own the
// snapshot container: every snapshot is written and read through them.
//
// All integers are fixed-width little-endian; doubles travel as their IEEE
// bit pattern (round trips are bit-identical, which the serving layer's
// "save → load → estimate is bit-identical" invariant relies on).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace ron {

/// Writes `bytes` to `out` (binary), throwing ron::Error naming `what` on a
/// short write. This and read_stream_bytes are the ONLY place snapshot code
/// touches raw char buffers: tools/ron_lint.py forbids memcpy and
/// reinterpret_cast in src/oracle/ outside wire.{h,cpp}, so every byte that
/// crosses a stream boundary goes through these bounds-checked helpers.
void write_stream_bytes(std::ostream& out, std::span<const std::uint8_t> bytes,
                        const char* what);

/// Reads exactly `bytes.size()` bytes from `in` into `bytes`, throwing
/// ron::Error naming `what` on a short read.
void read_stream_bytes(std::istream& in, std::span<std::uint8_t> bytes,
                       const char* what);

/// Best-effort prefix read for sniffing: fills as much of `bytes` as the
/// stream yields and returns the byte count. A short read at EOF is NOT an
/// error (callers that probe a possibly-foreign file decide what a short
/// prefix means), but a stream-level failure (badbit: disk error, throwing
/// streambuf) throws ron::Error — a failing device must never look like a
/// short foreign file.
std::size_t read_stream_prefix(std::istream& in, std::span<std::uint8_t> bytes);

/// A file written beside `path` (same directory, unique temporary name)
/// and renamed over it by commit() after an fsync, so a kill, crash or
/// throw mid-save never damages the snapshot already at `path`: readers
/// see the old file or the whole new one. Destroying an uncommitted
/// AtomicFile removes the temporary.
class AtomicFile {
 public:
  explicit AtomicFile(const std::string& path);
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  std::ofstream& stream() { return out_; }
  const std::string& path() const { return path_; }

  /// Flushes, fsyncs and closes the temporary, renames it over path(),
  /// then fsyncs the directory so the rename itself survives a crash.
  void commit();

 private:
  std::string path_;
  std::string temp_;
  std::ofstream out_;
  bool committed_ = false;
};

/// Snapshot container framing, owned by the streaming classes below:
/// magic[8] + u32 version + u32 kind + u64 payload length + u64 checksum,
/// then the payload. Saves write kSnapshotVersion; loads also accept
/// kSnapshotVersionV1. The checksum domain depends on the version: v1
/// covers the payload alone, v2 folds the header's version and kind fields
/// in front of it, so a flip that relabels a v2 file (downgrades its
/// version or swaps its kind) fails the checksum instead of reaching the
/// wrong parser.
inline constexpr std::uint8_t kSnapshotMagic[8] = {'R', 'O', 'N', 'S',
                                                   'N', 'A', 'P', '\n'};
inline constexpr std::size_t kSnapshotHeaderBytes = 8 + 4 + 4 + 8 + 8;
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::uint32_t kSnapshotVersionV1 = 1;

/// FNV-1a 64-bit checksum (the snapshot header's corruption detector; this
/// guards against accidental damage, not adversaries). The _continue form
/// chains over multiple spans: fnv1a64(a+b) ==
/// fnv1a64_continue(fnv1a64(a), b) — the container uses it to fold the
/// header's version/kind fields into the v2 checksum domain without
/// materializing a concatenated buffer.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);
std::uint64_t fnv1a64_continue(std::uint64_t state,
                               std::span<const std::uint8_t> bytes);

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u64) byte string.
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Writes one snapshot file, the only way a snapshot is saved: payload
/// bytes are folded into a running FNV-1a state and flushed to disk
/// kStreamChunkBytes at a time, so peak memory is one chunk instead of the
/// whole payload. The header is written up front with placeholder
/// length/checksum fields; finish() seeks back and patches them. The bytes
/// go to an AtomicFile, so the target only changes when finish()
/// succeeds. The primitive API mirrors WireWriter, so payload helpers can
/// be written once as templates.
inline constexpr std::size_t kStreamChunkBytes = 1 << 20;

class WireStreamWriter {
 public:
  /// Opens `path` and writes a kSnapshotVersion header for section `kind`
  /// with placeholder length and checksum.
  WireStreamWriter(const std::string& path, std::uint32_t kind);
  ~WireStreamWriter();
  WireStreamWriter(const WireStreamWriter&) = delete;
  WireStreamWriter& operator=(const WireStreamWriter&) = delete;

  void u8(std::uint8_t v) {
    chunk_.push_back(v);
    if (chunk_.size() >= kStreamChunkBytes) flush_chunk();
  }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u64) byte string.
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) u8(static_cast<std::uint8_t>(c));
  }

  /// Payload bytes emitted so far.
  std::uint64_t size() const { return total_ + chunk_.size(); }

  /// Flushes the tail chunk, patches the header's payload length and
  /// checksum, and renames the finished file over the target. Must be
  /// called exactly once for a valid snapshot. Destroying an unfinished
  /// writer (the exception path) removes its temporary file and leaves
  /// whatever the target held before untouched.
  void finish();

 private:
  void flush_chunk();

  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  AtomicFile file_;
  std::ofstream& out_;
  std::vector<std::uint8_t> chunk_;
  std::uint64_t total_ = 0;  // payload bytes already flushed
  std::uint64_t sum_;        // running checksum over flushed bytes
  bool finished_ = false;
};

class WireReader {
 public:
  /// A non-owning cursor; `bytes` must outlive the reader.
  explicit WireReader(std::span<const std::uint8_t> bytes) : data_(bytes) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  std::uint32_t u32() { return get_le<std::uint32_t>("u32"); }
  std::uint64_t u64() { return get_le<std::uint64_t>("u64"); }
  double f64() { return std::bit_cast<double>(get_le<std::uint64_t>("f64")); }

  std::string str() {
    const std::uint64_t len = u64();
    need(len, "str body");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  /// An element count that will size an allocation: rejected unless
  /// count * min_elem_bytes still fits in the unread payload, so a corrupt
  /// header cannot request a multi-gigabyte reserve.
  std::uint64_t read_count(std::size_t min_elem_bytes, const char* what) {
    const std::uint64_t count = u64();
    RON_CHECK(min_elem_bytes == 0 ||
                  count <= remaining() / min_elem_bytes,
              "snapshot: implausible " << what << " count " << count
                                       << " (" << remaining()
                                       << " bytes left)");
    return count;
  }

  /// Loads must consume the payload exactly; trailing garbage is corruption.
  void expect_done() const {
    RON_CHECK(done(), "snapshot: " << remaining() << " trailing bytes");
  }

 private:
  void need(std::uint64_t n, const char* what) const {
    RON_CHECK(n <= remaining(), "snapshot truncated reading " << what << " ("
                                    << n << " bytes wanted, " << remaining()
                                    << " left)");
  }

  template <typename T>
  T get_le(const char* what) {
    need(sizeof(T), what);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Reads one snapshot file, the only way a snapshot is loaded: serves
/// WireReader's primitive API from a sliding window over the file, so
/// loading a section holds one chunk plus the data structure being built,
/// never the whole payload. The constructor validates the magic, a known
/// version and the exact file length against the header's payload
/// promise, and seeds the running checksum from that version's domain
/// (the section kind is the caller's to check). The checksum is folded
/// over bytes as they are buffered, so the parser sees each byte BEFORE
/// the checksum has checked it: every allocation sized from a stored count
/// must be bounded by the unread payload (read_count), and expect_done() —
/// which every loader must reach — verifies full consumption AND the
/// checksum, so corruption still surfaces as ron::Error before the loaded
/// object is returned.
class WireStreamReader {
 public:
  struct Header {
    std::uint32_t version = 0;
    std::uint32_t kind = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t checksum = 0;  // the header's claimed checksum
  };

  explicit WireStreamReader(const std::string& path);
  WireStreamReader(const WireStreamReader&) = delete;
  WireStreamReader& operator=(const WireStreamReader&) = delete;

  const Header& header() const { return header_; }

  /// Consumes the rest of the payload unparsed (the inspect path: verifies
  /// length and checksum without building anything).
  void drain();

  std::uint64_t remaining() const { return header_.payload_bytes - consumed_; }
  bool done() const { return consumed_ == header_.payload_bytes; }

  std::uint8_t u8() {
    need(1, "u8");
    ++consumed_;
    return buf_[pos_++];
  }
  std::uint32_t u32() { return get_le<std::uint32_t>("u32"); }
  std::uint64_t u64() { return get_le<std::uint64_t>("u64"); }
  double f64() { return std::bit_cast<double>(get_le<std::uint64_t>("f64")); }

  std::string str();

  /// An element count that will size an allocation (see WireReader).
  std::uint64_t read_count(std::size_t min_elem_bytes, const char* what) {
    const std::uint64_t count = u64();
    RON_CHECK(min_elem_bytes == 0 || count <= remaining() / min_elem_bytes,
              "snapshot: implausible " << what << " count " << count << " ("
                                       << remaining() << " bytes left)");
    return count;
  }

  /// Verifies the payload was consumed exactly and the checksum matches.
  void expect_done();

 private:
  /// Ensures >= n contiguous unread bytes are buffered (n <= chunk size).
  void need(std::size_t n, const char* what);

  template <typename T>
  T get_le(const char* what) {
    need(sizeof(T), what);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(buf_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    consumed_ += sizeof(T);
    return v;
  }

  std::string path_;
  std::ifstream in_;
  Header header_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;        // next unread byte in buf_
  std::size_t avail_ = 0;      // valid bytes in buf_
  std::uint64_t fetched_ = 0;  // payload bytes pulled off the stream
  std::uint64_t consumed_ = 0; // payload bytes handed to the parser
  std::uint64_t sum_ = 0;      // running checksum over fetched bytes
};

}  // namespace ron
