#ifndef PRIMELABEL_DURABILITY_CRC32_H_
#define PRIMELABEL_DURABILITY_CRC32_H_

#include <cstdint>
#include <span>

namespace primelabel {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
///
/// Shared by the journal frame codec (frame.h) and the catalog image's
/// section digests (store/catalog.h). Lives in its own TU, compiled into
/// the Vfs target, because store must not depend on the full durability
/// library (which links corpus, which links store).
std::uint32_t Crc32(std::span<const std::uint8_t> bytes);

}  // namespace primelabel

#endif  // PRIMELABEL_DURABILITY_CRC32_H_
