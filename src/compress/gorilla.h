#ifndef TMAN_COMPRESS_GORILLA_H_
#define TMAN_COMPRESS_GORILLA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tman::compress {

// Lossless XOR compression for double series (the Gorilla/Elf family used
// by the paper for the latitude/longitude columns). Consecutive GPS fixes
// share exponent and high mantissa bits, so XORs are mostly zero.
class GorillaEncoder {
 public:
  void Add(double value);
  // Finalizes and returns the bitstream. The encoder is then exhausted.
  std::string Finish();
  size_t count() const { return count_; }

 private:
  // Appends the low `bits` (1..64) bits of `value`, most significant first.
  void WriteBits(uint64_t value, int bits);

  std::string buffer_;
  uint64_t pending_ = 0;  // the last pending_bits_ (< 64) bits written
  int pending_bits_ = 0;
  uint64_t prev_ = 0;
  int prev_leading_ = -1;
  int prev_trailing_ = -1;
  size_t count_ = 0;
};

// Reads a Gorilla bitstream one value at a time. Never reads past `size`.
class GorillaDecoder {
 public:
  GorillaDecoder(const char* data, size_t size)
      : data_(data), size_(size) {}

  // False when the blob is too short to hold `count` values: the first
  // takes 64 bits and every later one at least 1. Callers check it before
  // allocating for the values.
  bool Fits(size_t count) const {
    return count == 0 || (size_ >= 8 && count - 1 <= size_ * 8 - 64);
  }

  // Reads the next value; false on malformed input or at the blob's end.
  bool Next(double* value);

  // Decodes exactly `count` doubles with Next; false on malformed input,
  // including a count that does not fit.
  bool Decode(size_t count, std::vector<double>* out);

 private:
  bool ReadBit(bool* bit);
  // Reads the next `bits` (1..64) bits, most significant first.
  bool ReadBits(int bits, uint64_t* value);

  const char* data_;
  size_t size_;
  size_t bit_pos_ = 0;  // bits consumed
  uint64_t prev_ = 0;   // the last value's bits
  int leading_ = 0;     // the current XOR window
  int meaningful_ = 0;
};

}  // namespace tman::compress

#endif  // TMAN_COMPRESS_GORILLA_H_
