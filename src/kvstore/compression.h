#ifndef TMAN_KVSTORE_COMPRESSION_H_
#define TMAN_KVSTORE_COMPRESSION_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace tman::kv {

// Per-block compression negotiated at table-build time and recorded in the
// one-byte block trailer. Readers dispatch on the stored byte, so a table
// may freely mix block types: the builder picks, per block, whether the
// codec actually pays for itself. Any other stored byte reads as
// Corruption.
enum CompressionType : uint8_t {
  kNoCompression = 0x0,
  // Generic byte-oriented LZ (compress::ByteLz*).
  kByteCompression = 0x1,
};

inline bool IsValidCompressionType(uint8_t t) {
  return t <= kByteCompression;
}

// Compresses a raw (uncompressed) block per `requested`, appending the
// payload to *out and returning the type actually used. Byte-LZ is kept
// only if it saves at least 1/8 of the raw size; otherwise the block falls
// back to kNoCompression, *out is left untouched and the caller writes the
// raw bytes.
CompressionType CompressBlock(CompressionType requested, const Slice& raw,
                              std::string* out);

// Inverse of CompressBlock for one stored block payload; appends the raw
// block bytes to *out. Returns Corruption on any malformed payload.
Status UncompressBlock(CompressionType type, const char* data, size_t size,
                       std::string* out);

}  // namespace tman::kv

#endif  // TMAN_KVSTORE_COMPRESSION_H_
