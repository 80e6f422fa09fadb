// One little-endian wire codec for snapshots and served frames.
//
// Snapshots and frames both come from untrusted bytes: a truncated
// download, a bit-flipped disk block, a file of the wrong kind or a hostile
// client has to surface as ron::Error, never as UB or an unbounded
// allocation. WireWriter and WireReader are the only implementation of the
// primitives (u8/u32/u64/f64/varint/str, read_count, expect_done): every
// read validates the remaining length first, and every count that sizes an
// allocation is validated against the bytes that could possibly back it
// (see read_count). Memory or file is only where the bytes come from or go
// to. A WireWriter builds a buffer in memory (a served frame);
// WireStreamWriter is a WireWriter whose buffer spills to a snapshot file.
// A WireReader is a cursor over bytes in memory (a frame body);
// WireStreamReader is a WireReader whose window refills from a snapshot
// file. The stream classes also own the snapshot container: every snapshot
// is written and read through them.
//
// Integers are fixed-width little-endian, except where a payload asks for
// a varint (unsigned LEB128, see WireWriter::varint); doubles travel as
// their IEEE bit pattern (round trips are bit-identical, which the serving
// layer's "save → load → estimate is bit-identical" invariant relies on).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace ron {

/// Writes `bytes` to `out` (binary), throwing ron::Error naming `what` on a
/// short write. This and read_stream_bytes are the ONLY place snapshot code
/// touches raw char buffers: tools/ron_lint.py forbids memcpy and
/// reinterpret_cast in the wire-encoding modules outside wire.{h,cpp}, so
/// every byte that crosses a stream boundary goes through these
/// bounds-checked helpers.
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

/// Snapshot container framing, owned by the stream classes below:
/// magic[8] + u32 version + u32 kind + u64 payload length + u64 checksum,
/// then the payload. Every payload starts with its ScenarioSpec, and the
/// checksum folds the header's version and kind fields in front of the
/// payload, so a flip that relabels a file (changes its version or kind)
/// fails the checksum instead of reaching the wrong parser.
///
/// A build reads only the format it writes: saves write kSnapshotVersion
/// and loads accept nothing else. A snapshot is a cache of a deterministic
/// build that carries its own recipe, so a format bump replaces the reader
/// (and regenerates the fixtures under tests/data/) instead of adding one
/// beside it, and a file of an older version is rebuilt from its recipe
/// with `ron_oracle build --scenario SPEC`.
inline constexpr std::uint8_t kSnapshotMagic[8] = {'R', 'O', 'N', 'S',
                                                   'N', 'A', 'P', '\n'};
inline constexpr std::size_t kSnapshotHeaderBytes = 8 + 4 + 4 + 8 + 8;
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// The longest varint: ceil(64 / 7) bytes carry a u64.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// The most payload a stream class holds in memory at once: a writer
/// spills its buffer to disk at this size, and a reader's window holds at
/// most this many bytes (fewer when the whole payload is smaller).
inline constexpr std::size_t kStreamChunkBytes = 1 << 20;

/// FNV-1a 64-bit checksum (the snapshot header's corruption detector; this
/// guards against accidental damage, not adversaries). The _continue form
/// chains over multiple spans: fnv1a64(a+b) ==
/// fnv1a64_continue(fnv1a64(a), b) — the container uses it to fold the
/// header's version/kind fields into the checksum domain without
/// materializing a concatenated buffer.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);
std::uint64_t fnv1a64_continue(std::uint64_t state,
                               std::span<const std::uint8_t> bytes);

class WireWriter {
 public:
  WireWriter() = default;

  void u8(std::uint8_t v) {
    buf_.push_back(v);
    spill_if_full();
  }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  /// Unsigned LEB128: seven bits a byte, low group first, the high bit set
  /// on every byte but the last. One byte below 128, at most
  /// kMaxVarintBytes, and one encoding per value (no redundant zero final
  /// byte), which WireReader::varint insists on.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
    spill_if_full();
  }

  /// Length-prefixed (u64) byte string.
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
    spill_if_full();
  }

  /// The bytes not yet spilled: everything written, for a writer that
  /// does not spill.
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  /// Bytes written so far, spilled ones included.
  std::uint64_t size() const { return spilled_ + buf_.size(); }

 protected:
  /// A writer whose spill() runs whenever the buffer reaches `spill_at`.
  explicit WireWriter(std::size_t spill_at) : spill_at_(spill_at) {}

  /// Hands the buffered bytes on and clears the buffer (adding them to
  /// spilled_). Never called on a writer that does not spill.
  virtual void spill() {}

  std::vector<std::uint8_t> buf_;
  std::uint64_t spilled_ = 0;

 private:
  void spill_if_full() {
    if (buf_.size() >= spill_at_) spill();
  }

  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    spill_if_full();
  }

  std::size_t spill_at_ = std::numeric_limits<std::size_t>::max();
};

/// Writes one snapshot file, the only way a snapshot is saved: a
/// WireWriter whose buffer is folded into a running FNV-1a state and
/// spilled to disk every kStreamChunkBytes, so peak memory is one chunk
/// instead of the whole payload. The header is written up front with
/// placeholder length/checksum fields; finish() seeks back and patches
/// them. The bytes go to an AtomicFile, so the target only changes when
/// finish() succeeds.
class WireStreamWriter : public WireWriter {
 public:
  /// Opens `path` and writes a kSnapshotVersion header for section `kind`
  /// with placeholder length and checksum.
  WireStreamWriter(const std::string& path, std::uint32_t kind);
  WireStreamWriter(const WireStreamWriter&) = delete;
  WireStreamWriter& operator=(const WireStreamWriter&) = delete;

  /// Spills the tail, patches the header's payload length and checksum,
  /// and renames the finished file over the target. Must be called
  /// exactly once for a valid snapshot. Destroying an unfinished writer
  /// (the exception path) removes its temporary file and leaves whatever
  /// the target held before untouched.
  void finish();

 private:
  void spill() override;

  AtomicFile file_;
  std::uint64_t sum_;  // running checksum over spilled bytes
  bool finished_ = false;
};

class WireReader {
 public:
  /// A non-owning cursor; `bytes` must outlive the reader.
  explicit WireReader(std::span<const std::uint8_t> bytes) : data_(bytes) {}

  /// Unread bytes: the rest of the window, plus what a stream reader has
  /// not fetched yet.
  std::uint64_t remaining() const { return data_.size() - pos_ + unfetched_; }
  bool done() const { return remaining() == 0; }

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  std::uint32_t u32() { return get_le<std::uint32_t>("u32"); }
  std::uint64_t u64() { return get_le<std::uint64_t>("u64"); }
  double f64() { return std::bit_cast<double>(get_le<std::uint64_t>("f64")); }

  /// A varint (see WireWriter::varint). Throws ron::Error on one cut off
  /// by the end of the bytes, longer than kMaxVarintBytes, carrying bits
  /// past 64, or ending in a redundant zero byte.
  std::uint64_t varint() {
    // One-byte values are the bulk of a label's bytes.
    if (pos_ < data_.size() && data_[pos_] < 0x80) return data_[pos_++];
    return varint_long();
  }

  std::string str();

  /// An element count (u64) that will size an allocation: rejected unless
  /// count * min_elem_bytes still fits in the unread payload, so a corrupt
  /// header cannot request a multi-gigabyte reserve.
  std::uint64_t read_count(std::size_t min_elem_bytes, const char* what) {
    return checked_count(u64(), min_elem_bytes, what);
  }
  /// read_count for a count stored as a varint.
  std::uint64_t read_varint_count(std::size_t min_elem_bytes,
                                  const char* what) {
    return checked_count(varint(), min_elem_bytes, what);
  }

  /// Loads must consume the payload exactly; trailing garbage is
  /// corruption. A stream reader also verifies its checksum here.
  void expect_done() const {
    RON_CHECK(done(), "wire: " << remaining() << " trailing bytes");
    check_consumed();
  }

 protected:
  WireReader() = default;

  /// Moves the window on over unfetched bytes. Only called when a read
  /// that remaining() covers runs past the window, which never happens to
  /// a reader over memory (nothing unfetched); a WireReader copied off a
  /// stream reader throws here instead of reading past its window.
  virtual void refill();
  /// Runs once the payload is consumed exactly (see expect_done).
  virtual void check_consumed() const {}

  std::span<const std::uint8_t> data_;  // the window
  std::size_t pos_ = 0;                 // next unread byte in data_
  std::uint64_t unfetched_ = 0;         // bytes after the window

 private:
  void need(std::size_t n, const char* what) {
    if (n > data_.size() - pos_) fetch(n, what);
  }
  /// The slow path of need(): truncation check, then refill.
  void fetch(std::size_t n, const char* what);
  /// The slow path of varint(): a byte at a time, refilling as needed.
  std::uint64_t varint_long();

  std::uint64_t checked_count(std::uint64_t count, std::size_t min_elem_bytes,
                              const char* what) const {
    RON_CHECK(min_elem_bytes == 0 ||
                  count <= remaining() / min_elem_bytes,
              "wire: implausible " << what << " count " << count << " ("
                                   << remaining() << " bytes left)");
    return count;
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
};

/// Reads one snapshot file, the only way a snapshot is loaded: a
/// WireReader whose window slides over the file, so loading a section
/// holds one window (at most kStreamChunkBytes, sized to the payload when
/// that is smaller) plus the data structure being built, never the whole
/// payload. The constructor validates the magic, the version (exactly
/// kSnapshotVersion) and the exact file length against the header's
/// payload promise, and seeds the running checksum with the header's
/// version and kind (the section kind is the caller's to check). The
/// checksum is folded over each refill, so the parser sees each byte
/// BEFORE the checksum has checked it: every allocation sized from a
/// stored count must be bounded by the unread payload (read_count), and
/// expect_done() — which every loader must reach — verifies full
/// consumption AND the checksum, so corruption still surfaces as
/// ron::Error before the loaded object is returned.
class WireStreamReader : public WireReader {
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

 private:
  void refill() override;
  void check_consumed() const override;

  std::string path_;
  std::ifstream in_;
  Header header_;
  std::unique_ptr<std::uint8_t[]> window_;
  std::size_t capacity_ = 0;  // bytes window_ holds
  std::uint64_t sum_ = 0;     // running checksum over fetched bytes
};

}  // namespace ron
