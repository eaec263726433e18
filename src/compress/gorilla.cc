#include "compress/gorilla.h"

#include <bit>
#include <cstring>

namespace tman::compress {

namespace {

uint64_t DoubleToBits(double d) {
  uint64_t bits;
  memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double d;
  memcpy(&d, &bits, sizeof(d));
  return d;
}

// The bitstream is most-significant-bit first, so whole words move through
// memory big-endian.
uint64_t ToBigEndian(uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(word);
  }
  return word;
}

}  // namespace

void GorillaEncoder::WriteBits(uint64_t value, int bits) {
  if (bits < 64) value &= (uint64_t{1} << bits) - 1;
  const int room = 64 - pending_bits_;
  if (bits < room) {
    pending_ = (pending_ << bits) | value;
    pending_bits_ += bits;
    return;
  }
  // The pending bits and the head of `value` fill a word: emit it.
  const int spill = bits - room;
  uint64_t word = value >> spill;
  if (room < 64) word |= pending_ << room;
  char bytes[8];
  word = ToBigEndian(word);
  memcpy(bytes, &word, sizeof(bytes));
  buffer_.append(bytes, sizeof(bytes));
  pending_ = spill == 0 ? 0 : value & ((uint64_t{1} << spill) - 1);
  pending_bits_ = spill;
}

void GorillaEncoder::Add(double value) {
  const uint64_t bits = DoubleToBits(value);
  if (count_ == 0) {
    WriteBits(bits, 64);
  } else {
    const uint64_t x = bits ^ prev_;
    if (x == 0) {
      WriteBits(0, 1);
    } else {
      int leading = std::countl_zero(x);
      int trailing = std::countr_zero(x);
      if (leading > 31) leading = 31;  // 5-bit field
      if (prev_leading_ >= 0 && leading >= prev_leading_ &&
          trailing >= prev_trailing_) {
        // Control bits 10: reuse the previous window.
        const int meaningful = 64 - prev_leading_ - prev_trailing_;
        WriteBits(0b10, 2);
        WriteBits(x >> prev_trailing_, meaningful);
      } else {
        // Control bits 11: new window: 5 bits leading, 6 bits length (64
        // wraps to 0).
        const int meaningful = 64 - leading - trailing;
        WriteBits((uint64_t{0b11} << 11) |
                      (static_cast<uint64_t>(leading) << 6) |
                      static_cast<uint64_t>(meaningful & 63),
                  13);
        WriteBits(x >> trailing, meaningful);
        prev_leading_ = leading;
        prev_trailing_ = trailing;
      }
    }
  }
  prev_ = bits;
  count_++;
}

std::string GorillaEncoder::Finish() {
  // Emit the pending bits, zero-padding the final byte.
  const uint64_t word =
      pending_bits_ == 0 ? 0 : pending_ << (64 - pending_bits_);
  for (int i = 0; i < (pending_bits_ + 7) / 8; i++) {
    buffer_.push_back(static_cast<char>(word >> (56 - 8 * i)));
  }
  pending_ = 0;
  pending_bits_ = 0;
  return std::move(buffer_);
}

bool GorillaDecoder::ReadBit(bool* bit) {
  if (bit_pos_ >= size_ * 8) return false;
  const uint8_t byte = static_cast<uint8_t>(data_[bit_pos_ >> 3]);
  *bit = (byte >> (7 - (bit_pos_ & 7))) & 1;
  bit_pos_++;
  return true;
}

bool GorillaDecoder::ReadBits(int bits, uint64_t* value) {
  if (static_cast<size_t>(bits) > size_ * 8 - bit_pos_) return false;
  const size_t byte = bit_pos_ >> 3;
  const int offset = static_cast<int>(bit_pos_ & 7);
  uint64_t word = 0;
  if (byte + 8 <= size_) {
    memcpy(&word, data_ + byte, sizeof(word));
    word = ToBigEndian(word);
  } else {
    // Within the blob's last 7 bytes: load only the bytes that exist.
    for (size_t i = byte; i < size_; i++) {
      word = (word << 8) | static_cast<uint8_t>(data_[i]);
    }
    word <<= 8 * (byte + 8 - size_);
  }
  word <<= offset;
  if (bits > 64 - offset) {
    // The field ends in the ninth byte, which the size check guarantees.
    word |= static_cast<uint8_t>(data_[byte + 8]) >> (8 - offset);
  }
  *value = word >> (64 - bits);
  bit_pos_ += bits;
  return true;
}

bool GorillaDecoder::Next(double* value) {
  if (bit_pos_ == 0) {
    if (!ReadBits(64, &prev_)) return false;
    *value = BitsToDouble(prev_);
    return true;
  }
  bool changed = false;
  if (!ReadBit(&changed)) return false;
  if (changed) {
    bool new_window = false;
    if (!ReadBit(&new_window)) return false;
    if (new_window) {
      uint64_t window = 0;  // 5 bits leading, 6 bits length
      if (!ReadBits(11, &window)) return false;
      leading_ = static_cast<int>(window >> 6);
      meaningful_ = static_cast<int>(window & 63);
      if (meaningful_ == 0) meaningful_ = 64;  // 6-bit overflow encoding
    }
    if (meaningful_ == 0 || leading_ + meaningful_ > 64) return false;
    uint64_t xor_bits = 0;
    if (!ReadBits(meaningful_, &xor_bits)) return false;
    prev_ ^= xor_bits << (64 - leading_ - meaningful_);
  }
  *value = BitsToDouble(prev_);
  return true;
}

bool GorillaDecoder::Decode(size_t count, std::vector<double>* out) {
  out->clear();
  if (!Fits(count)) return false;
  out->reserve(count);
  double value = 0;
  for (size_t i = 0; i < count; i++) {
    if (!Next(&value)) return false;
    out->push_back(value);
  }
  return true;
}

}  // namespace tman::compress
