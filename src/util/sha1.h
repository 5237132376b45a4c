// From-scratch SHA-1 (FIPS 180-1). The paper's storage model identifies
// tuples (VIDs) and rule executions (RIDs) by SHA-1 digests; we reproduce
// that faithfully so serialized table sizes match the paper's accounting.
//
// Two compression blocks compute the same function. On x86-64 CPUs with
// the SHA extensions (CPUID leaf 7 EBX bit 29, plus SSSE3 and SSE4.1) a
// block written with the sha1rnds4/sha1nexte/sha1msg1/sha1msg2 intrinsics
// runs; it is compiled with a function `target` attribute, so the rest of
// the build keeps its baseline flags. Every other CPU runs the portable
// block. The choice is made once, from CPUID, the first time a hasher is
// built; Sha1::BlockName() reports it. Both blocks take a run of whole
// 64-byte blocks per call, so Update() hands each run of input over at
// once and Finish() pads and compresses its tail in a single call.
#ifndef DPC_UTIL_SHA1_H_
#define DPC_UTIL_SHA1_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dpc {

// A 160-bit SHA-1 digest. Hashable and totally ordered so it can key
// standard containers.
struct Sha1Digest {
  std::array<uint8_t, 20> bytes{};

  bool operator==(const Sha1Digest& other) const = default;
  auto operator<=>(const Sha1Digest& other) const = default;

  // First 8 bytes as a little-endian integer; used as a cheap in-memory
  // hash-table key. The full digest is what gets serialized.
  uint64_t Prefix64() const;

  // Lowercase hex, e.g. "da39a3ee...". `truncate` limits the output to the
  // first `truncate` bytes (0 = full digest) for compact display.
  std::string ToHex(size_t truncate = 0) const;

  bool IsZero() const;
};

namespace sha1_internal {

// Compresses `n` consecutive 64-byte blocks into the five-word state.
using BlockFn = void (*)(uint32_t state[5], const uint8_t* blocks, size_t n);

void PortableBlock(uint32_t state[5], const uint8_t* blocks, size_t n);
// The SHA-extension block, or null where it is not compiled (non-x86-64).
// Call it only when CpuHasShaExt() is true.
BlockFn ShaExtBlock();
bool CpuHasShaExt();

}  // namespace sha1_internal

// Incremental SHA-1 hasher.
class Sha1 {
 public:
  // Uses the compression block selected for this CPU.
  Sha1();
  // Uses `block` instead. Test seam: lets one process check both blocks.
  explicit Sha1(sha1_internal::BlockFn block);

  // Appends `data` to the message.
  void Update(const void* data, size_t len);
  void Update(std::string_view sv) { Update(sv.data(), sv.size()); }

  // Finalizes and returns the digest. The hasher must not be reused
  // afterwards without calling Reset().
  Sha1Digest Finish();

  void Reset();

  // One-shot convenience.
  static Sha1Digest Hash(std::string_view data);
  static Sha1Digest Hash(const void* data, size_t len);

  // The compression block this CPU runs: "sha-ext" or "portable".
  static const char* BlockName();

 private:
  sha1_internal::BlockFn block_;
  uint32_t h_[5];
  uint64_t total_len_ = 0;
  // Update() fills the first 64 bytes; Finish() pads into the second
  // block when the length field does not fit after the tail.
  uint8_t buffer_[128];
  size_t buffer_len_ = 0;
};

// std::hash support for Sha1Digest.
struct Sha1DigestHash {
  size_t operator()(const Sha1Digest& d) const {
    return static_cast<size_t>(d.Prefix64());
  }
};

}  // namespace dpc

#endif  // DPC_UTIL_SHA1_H_
