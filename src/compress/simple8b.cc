#include "compress/simple8b.h"

#include "common/coding.h"

namespace tman::compress {

namespace {

// selector -> (number of values per word, bits per value). Selector 0
// packs 240 zero-valued entries, selector 1 packs 120.
struct Packing {
  uint32_t n;
  uint32_t bits;
};

constexpr Packing kPackings[16] = {
    {240, 0}, {120, 0}, {60, 1}, {30, 2}, {20, 3}, {15, 4},
    {12, 5},  {10, 6},  {8, 7},  {7, 8},  {6, 10}, {5, 12},
    {4, 15},  {3, 20},  {2, 30}, {1, 60},
};

}  // namespace

bool Simple8bEncode(const std::vector<uint64_t>& values, std::string* out) {
  size_t pos = 0;
  while (pos < values.size()) {
    // Find the densest packing that fits the next run of values.
    bool packed = false;
    for (int sel = 0; sel < 16; sel++) {
      const Packing p = kPackings[sel];
      const size_t available = values.size() - pos;
      const size_t n = p.n < available ? p.n : available;
      if (p.bits == 0) {
        // Zero-run selectors require a full run of zeros.
        if (available < p.n) continue;
        bool all_zero = true;
        for (size_t i = 0; i < p.n; i++) {
          if (values[pos + i] != 0) {
            all_zero = false;
            break;
          }
        }
        if (!all_zero) continue;
        uint64_t word = static_cast<uint64_t>(sel) << 60;
        PutFixed64(out, word);
        pos += p.n;
        packed = true;
        break;
      }
      if (n < p.n && sel != 15) {
        // Not enough remaining values to fill this word; only acceptable
        // if no denser selector fits, so fall through to sparser ones.
      }
      // All of the next min(p.n, available) values must fit in p.bits, and
      // the word is only usable if it can be fully populated (pad-free
      // encoding keeps the decoder exact). Allow partial fill by padding
      // with zeros when this is the sparsest viable selector.
      const uint64_t max_value =
          p.bits >= 64 ? UINT64_MAX : ((1ULL << p.bits) - 1);
      bool fits = true;
      const size_t take = p.n <= available ? p.n : available;
      for (size_t i = 0; i < take; i++) {
        if (values[pos + i] > max_value) {
          fits = false;
          break;
        }
      }
      if (!fits) continue;
      if (take < p.n) {
        // Partial word: check that no denser selector both fits and fills;
        // padding zeros is safe because the decoder reads an exact count.
      }
      uint64_t word = static_cast<uint64_t>(sel) << 60;
      for (size_t i = 0; i < take; i++) {
        word |= values[pos + i] << (p.bits * i);
      }
      PutFixed64(out, word);
      pos += take;
      packed = true;
      break;
    }
    if (!packed) return false;  // value needs more than 60 bits
  }
  return true;
}

bool Simple8bReader::Next(uint64_t* value) {
  if (left_ == 0) {
    if (offset_ + 8 > size_) return false;
    word_ = DecodeFixed64(data_ + offset_);
    offset_ += 8;
    const Packing p = kPackings[word_ >> 60];
    left_ = p.n;
    bits_ = p.bits;
  }
  left_--;
  if (bits_ == 0) {
    *value = 0;
    return true;
  }
  *value = word_ & ((uint64_t{1} << bits_) - 1);
  word_ >>= bits_;
  return true;
}

bool Simple8bDecode(const char* data, size_t size, size_t count,
                    std::vector<uint64_t>* out) {
  out->clear();
  Simple8bReader reader(data, size);
  if (!reader.Fits(count)) return false;
  out->reserve(count);
  uint64_t value = 0;
  for (size_t i = 0; i < count; i++) {
    if (!reader.Next(&value)) return false;
    out->push_back(value);
  }
  return true;
}

}  // namespace tman::compress
