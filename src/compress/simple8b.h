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

// Reads a Simple8b blob one value at a time. Never reads past `size`.
class Simple8bReader {
 public:
  Simple8bReader(const char* data, size_t size) : data_(data), size_(size) {}

  // False when the blob is too short to hold `count` values: a word holds
  // at most 240, whatever its selector says. Callers check it before
  // allocating for the values.
  bool Fits(size_t count) const { return count <= size_ / 8 * 240; }

  // Reads the next value; false past the blob's last whole word.
  bool Next(uint64_t* value);

 private:
  const char* data_;
  size_t size_;
  size_t offset_ = 0;  // bytes of the words loaded so far
  uint64_t word_ = 0;  // the current word's unread values, lowest first
  uint32_t left_ = 0;  // values left in word_
  uint32_t bits_ = 0;  // width of each value in word_
};

// Decodes exactly `count` values appended by Simple8bEncode with a
// Simple8bReader; false when the blob is malformed or too short for
// `count`.
bool Simple8bDecode(const char* data, size_t size, size_t count,
                    std::vector<uint64_t>* out);

}  // namespace tman::compress

#endif  // TMAN_COMPRESS_SIMPLE8B_H_
