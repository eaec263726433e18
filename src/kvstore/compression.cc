#include "kvstore/compression.h"

#include "compress/byte_codec.h"

namespace tman::kv {

namespace {

// A codec must save at least this fraction of the raw size to be kept;
// otherwise storing raw is cheaper than paying decompression on every read.
inline bool WorthKeeping(size_t raw, size_t compressed) {
  return compressed < raw - raw / 8;
}

}  // namespace

CompressionType CompressBlock(CompressionType requested, const Slice& raw,
                              std::string* out) {
  if (requested == kNoCompression || raw.empty()) return kNoCompression;
  std::string lz;
  compress::ByteLzEncode(raw.data(), raw.size(), &lz);
  if (WorthKeeping(raw.size(), lz.size())) {
    out->append(lz);
    return kByteCompression;
  }
  return kNoCompression;
}

Status UncompressBlock(CompressionType type, const char* data, size_t size,
                       std::string* out) {
  switch (type) {
    case kNoCompression:
      out->append(data, size);
      return Status::OK();
    case kByteCompression:
      if (!compress::ByteLzDecode(data, size, out)) {
        return Status::Corruption("bad LZ-compressed block");
      }
      return Status::OK();
  }
  return Status::Corruption("unknown block compression type");
}

}  // namespace tman::kv
