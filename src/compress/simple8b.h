#ifndef TMAN_COMPRESS_SIMPLE8B_H_
#define TMAN_COMPRESS_SIMPLE8B_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tman::compress {

// Simple8b integer packing (Anh & Moffat, 2010): each 64-bit word stores a
// 4-bit selector and up to 240 small integers at a fixed bit width. Used
// for the timestamp column of the trajectory `points` blob.
//
// Values of 60 bits or more cannot be packed; Encode returns false for
// them (callers zigzag/delta first, which keeps magnitudes small).
bool Simple8bEncode(const std::vector<uint64_t>& values, std::string* out);

// Decodes exactly `count` values appended by Simple8bEncode; false when the
// blob is malformed or too short for `count`.
bool Simple8bDecode(const char* data, size_t size, size_t count,
                    std::vector<uint64_t>* out);

}  // namespace tman::compress

#endif  // TMAN_COMPRESS_SIMPLE8B_H_
