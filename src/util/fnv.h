// FNV-1a fingerprint helpers.
//
// State fingerprints across the codebase (fleet worlds, chaos soak) fold
// scalar fields byte-by-byte into a 64-bit FNV-1a accumulator. Equal
// fingerprints mean bit-identical execution; the mixing order of fields is
// part of each fingerprint's contract, so callers must never reorder the
// fields they fold.
#pragma once

#include <bit>
#include <cstdint>

namespace spectra::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
// Seed of the fleet fingerprints and of FeatureSlots' bin-key hash. Not the
// offset basis (a digit short); kept because fleet fingerprints use it.
inline constexpr std::uint64_t kFingerprintSeed = 1469598103934665603ull;

// Fold the eight bytes of `v` (low byte first) into the accumulator.
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv_mix(std::uint64_t h, double v) {
  return fnv_mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace spectra::util
