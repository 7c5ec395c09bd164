#include "durability/crc32.h"

#include <array>
#include <cstring>

namespace primelabel {

namespace {

/// Slicing-by-8 CRC-32 tables (reflected 0xEDB88320 polynomial).
/// table[0] is the classic byte-at-a-time table; table[k][b] advances a
/// CRC whose low byte is `b` by k+1 further zero bytes. Processing eight
/// input bytes per step turns the bit-serial dependency chain into eight
/// independent loads, which matters here: every WAL frame append/replay
/// and every catalog-image section digest funnels through this routine,
/// and those digests cover entire multi-megabyte images at open time.
const std::array<std::array<std::uint32_t, 256>, 8>& Crc32Tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[k][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> bytes) {
  const auto& t = Crc32Tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    // One aligned-width load; memcpy keeps it UB-free on any alignment.
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc ^= static_cast<std::uint32_t>(chunk);
    const std::uint32_t hi = static_cast<std::uint32_t>(chunk >> 32);
    crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
          t[5][(crc >> 16) & 0xFF] ^ t[4][crc >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
    --n;
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace primelabel
