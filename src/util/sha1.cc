#include "src/util/sha1.h"

#include <algorithm>
#include <cstring>

#include "src/util/perf.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#define DPC_SHA1_HAVE_SHA_EXT 1
#endif

namespace dpc {

namespace {

inline uint32_t RotL(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

constexpr char kHexDigits[] = "0123456789abcdef";

#ifdef DPC_SHA1_HAVE_SHA_EXT

// Everything that touches the SHA-extension intrinsics carries this
// attribute instead of a global -msha, so the block is compiled for its
// instructions while the rest of the build keeps the baseline ISA.
#define DPC_SHA_EXT_TARGET __attribute__((target("sha,ssse3,sse4.1")))

// The block's running values. Lane 3 is the high lane: `abcd` holds A in
// lane 3 down to D in lane 0, and each message register holds four
// schedule words W[4g..4g+3] with W[4g] in lane 3, as sha1rnds4 expects.
struct ShaExtRegs {
  __m128i abcd;
  // ABCD as it was before the previous four rounds. Its lane 3, rotated
  // left by 30, is the E of the next four rounds (sha1nexte adds it).
  __m128i e_src;
  __m128i w[4];  // W[4g..4g+3] lives in w[g % 4]
};

// Rounds 4g..4g+3, then the rest of the block by recursion: every index
// and the round-function selector are compile-time constants, as
// sha1rnds4's immediate requires.
template <int G>
DPC_SHA_EXT_TARGET __attribute__((always_inline)) inline void ShaExtRounds(
    ShaExtRegs& r, const uint8_t* block) {
  if constexpr (G < 20) {
    constexpr int kCur = G % 4;
    if constexpr (G < 4) {
      // Load four big-endian words: reversing all 16 bytes both swaps
      // each word's bytes and puts the first word in lane 3.
      const __m128i reverse =
          _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
      r.w[kCur] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(
              block + static_cast<size_t>(16) * G)),
          reverse);
    } else {
      // W[t] = rotl(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16], 1) for four t:
      // msg1 folds W[t-16] ^ W[t-14], the xor adds W[t-8], msg2 adds
      // W[t-3] (including the words it computes itself) and rotates.
      __m128i x = _mm_sha1msg1_epu32(r.w[kCur], r.w[(G + 1) % 4]);
      x = _mm_xor_si128(x, r.w[(G + 2) % 4]);
      r.w[kCur] = _mm_sha1msg2_epu32(x, r.w[(G + 3) % 4]);
    }
    __m128i we = _mm_sha1nexte_epu32(r.e_src, r.w[kCur]);
    r.e_src = r.abcd;
    r.abcd = _mm_sha1rnds4_epu32(r.abcd, we, G / 5);
    ShaExtRounds<G + 1>(r, block);
  }
}

DPC_SHA_EXT_TARGET void ShaExtCompress(uint32_t state[5],
                                       const uint8_t* blocks, size_t n) {
  ShaExtRegs r;
  r.abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  uint32_t e = state[4];
  for (; n > 0; --n, blocks += 64) {
    const __m128i abcd_in = r.abcd;
    // sha1nexte rotates its source left by 30 before adding; pre-rotating
    // E left by 2 makes the first four rounds add E itself.
    r.e_src = _mm_set_epi32(static_cast<int>(RotL(e, 2)), 0, 0, 0);
    ShaExtRounds<0>(r, blocks);
    // After the last four rounds E is rotl(A as it entered them, 30),
    // which is what sha1nexte adds to zero.
    e += static_cast<uint32_t>(_mm_extract_epi32(
        _mm_sha1nexte_epu32(r.e_src, _mm_setzero_si128()), 3));
    r.abcd = _mm_add_epi32(r.abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(r.abcd, 0x1B));
  state[4] = e;
}

#endif  // DPC_SHA1_HAVE_SHA_EXT

sha1_internal::BlockFn SelectedBlock() {
  static const sha1_internal::BlockFn block =
      sha1_internal::CpuHasShaExt() ? sha1_internal::ShaExtBlock()
                                    : &sha1_internal::PortableBlock;
  return block;
}

}  // namespace

namespace sha1_internal {

void PortableBlock(uint32_t state[5], const uint8_t* blocks, size_t n) {
  for (; n > 0; --n, blocks += 64) {
    uint32_t w[80];
    for (size_t i = 0; i < 16; ++i) {
      const uint8_t* p = blocks + 4 * i;
      w[i] = (static_cast<uint32_t>(p[0]) << 24) |
             (static_cast<uint32_t>(p[1]) << 16) |
             (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = RotL(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
             e = state[4];
    auto round = [&](uint32_t f, uint32_t k, uint32_t wi) {
      uint32_t tmp = RotL(a, 5) + f + e + k + wi;
      e = d;
      d = c;
      c = RotL(b, 30);
      b = a;
      a = tmp;
    };
    for (int i = 0; i < 20; ++i) round((b & c) | (~b & d), 0x5A827999, w[i]);
    for (int i = 20; i < 40; ++i) round(b ^ c ^ d, 0x6ED9EBA1, w[i]);
    for (int i = 40; i < 60; ++i) {
      round((b & c) | (b & d) | (c & d), 0x8F1BBCDC, w[i]);
    }
    for (int i = 60; i < 80; ++i) round(b ^ c ^ d, 0xCA62C1D6, w[i]);
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

BlockFn ShaExtBlock() {
#ifdef DPC_SHA1_HAVE_SHA_EXT
  return &ShaExtCompress;
#else
  return nullptr;
#endif
}

bool CpuHasShaExt() {
#ifdef DPC_SHA1_HAVE_SHA_EXT
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & bit_SHA) != 0;
  return ssse3 && sse41 && sha;
#else
  return false;
#endif
}

}  // namespace sha1_internal

uint64_t Sha1Digest::Prefix64() const {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return v;
}

std::string Sha1Digest::ToHex(size_t truncate) const {
  size_t n = (truncate == 0 || truncate > bytes.size()) ? bytes.size()
                                                        : truncate;
  std::string out;
  out.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(kHexDigits[bytes[i] >> 4]);
    out.push_back(kHexDigits[bytes[i] & 0xf]);
  }
  return out;
}

bool Sha1Digest::IsZero() const {
  for (uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

Sha1::Sha1() : Sha1(SelectedBlock()) {}

Sha1::Sha1(sha1_internal::BlockFn block) : block_(block) { Reset(); }

void Sha1::Reset() {
  h_[0] = 0x67452301;
  h_[1] = 0xEFCDAB89;
  h_[2] = 0x98BADCFE;
  h_[3] = 0x10325476;
  h_[4] = 0xC3D2E1F0;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::Update(const void* data, size_t len) {
  if (len == 0) return;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    block_(h_, buffer_, 1);
    buffer_len_ = 0;
  }
  if (len >= 64) {
    size_t blocks = len / 64;
    block_(h_, p, blocks);
    p += 64 * blocks;
    len -= 64 * blocks;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Sha1Digest Sha1::Finish() {
  identity_cells().sha1_invocations.Bump();
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length, ending
  // the first block when the tail leaves room for it (< 56 bytes) and the
  // second otherwise.
  const size_t blocks = buffer_len_ < 56 ? 1 : 2;
  const size_t len_at = 64 * blocks - 8;
  buffer_[buffer_len_] = 0x80;
  std::memset(buffer_ + buffer_len_ + 1, 0, len_at - buffer_len_ - 1);
  const uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    buffer_[len_at + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  block_(h_, buffer_, blocks);
  buffer_len_ = 0;

  Sha1Digest digest;
  for (int i = 0; i < 5; ++i) {
    digest.bytes[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    digest.bytes[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest.bytes[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest.bytes[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

Sha1Digest Sha1::Hash(std::string_view data) {
  return Hash(data.data(), data.size());
}

Sha1Digest Sha1::Hash(const void* data, size_t len) {
  Sha1 hasher;
  hasher.Update(data, len);
  return hasher.Finish();
}

const char* Sha1::BlockName() {
  return SelectedBlock() == &sha1_internal::PortableBlock ? "portable"
                                                          : "sha-ext";
}

}  // namespace dpc
