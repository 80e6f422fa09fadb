// Seeded byte mutations shared by the snapshot fuzzer (test_oracle.cpp) and
// the frame fuzzers (test_served.cpp): hostile bytes are tried the same way
// whether they arrive as a file or as a frame.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace ron {

/// Applies one random mutation — multi-byte flips, a truncation, appended
/// bytes or a scrambled window — and is guaranteed to change the bytes.
/// `Byte` is char (snapshot files) or std::uint8_t (frame payloads).
template <typename Byte>
std::vector<Byte> mutate(const std::vector<Byte>& original, Rng& rng) {
  std::vector<Byte> bytes = original;
  switch (rng.index(4)) {
    case 0: {  // flip 1..4 bytes anywhere (header and payload alike)
      const std::size_t flips = 1 + rng.index(4);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t pos = rng.index(bytes.size());
        bytes[pos] = static_cast<Byte>(
            bytes[pos] ^ static_cast<Byte>(1 + rng.index(255)));
      }
      // Two flips on the same position with the same mask cancel; force a
      // change so the identity never masquerades as a mutation.
      if (bytes == original) bytes[0] = static_cast<Byte>(bytes[0] ^ 0x01);
      break;
    }
    case 1: {  // truncate to a random prefix (possibly empty)
      bytes.resize(rng.index(bytes.size()));
      break;
    }
    case 2: {  // append 1..16 random trailing bytes
      const std::size_t extra = 1 + rng.index(16);
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<Byte>(rng.index(256)));
      }
      break;
    }
    default: {  // scramble a random window of 1..32 bytes
      const std::size_t start = rng.index(bytes.size());
      const std::size_t len =
          std::min(1 + rng.index(32), bytes.size() - start);
      bool changed = false;
      for (std::size_t i = start; i < start + len; ++i) {
        const Byte b = static_cast<Byte>(rng.index(256));
        changed = changed || b != bytes[i];
        bytes[i] = b;
      }
      if (!changed) bytes[start] = static_cast<Byte>(bytes[start] ^ 0x01);
      break;
    }
  }
  return bytes;
}

}  // namespace ron
