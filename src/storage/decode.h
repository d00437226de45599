// Chunk decode primitives as hybrid (v, s, p) map kernels.
//
// The three decode steps — bit-unpack, frame-of-reference add, dictionary
// gather — are each one MapKernel over a contiguous index stream, so they
// lower to scalar/AVX2/AVX-512 through the same HybridRunner machinery as
// the pipeline gather, and the tuner can walk their (v, s, p) grids. The
// matching HID operator templates live in examples/templates/
// {unpack_bits,for_add,dict_gather}.hid so the translator, verifier, and
// dependence prover cover the same op sequences.
//
// UnpackBits reads values packed at a width from kPackedWidths; because
// widths divide 64, each value lives in exactly one word and decode is one
// gather + one variable shift + one mask per lane — no cross-word splice.

#ifndef HEF_STORAGE_DECODE_H_
#define HEF_STORAGE_DECODE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "hybrid/hybrid_config.h"
#include "procinfo/instruction_table.h"

namespace hef::storage {

// Reusable per-thread buffers for ChunkedColumn's decode calls
// (DecodeRange, DecodeBlock, GatherDecode): a 0,1,2,... index stream
// feeding the unpack kernel and a staging buffer between the unpack and
// dict-gather/FoR-add passes. Never shared across threads.
class DecodeScratch {
 public:
  // Grows (never shrinks) both buffers to hold n elements and keeps
  // iota[i] == i.
  void EnsureCapacity(std::size_t n);

  const std::uint64_t* iota() const { return iota_.data(); }
  std::uint64_t* stage() { return stage_.data(); }
  std::size_t capacity() const { return iota_.size(); }

 private:
  AlignedBuffer<std::uint64_t> iota_;
  AlignedBuffer<std::uint64_t> stage_;
};

// out[i] = value (first + idx[i]) of the packed stream, i.e.
//   (words[((first + idx[i]) * width) >> 6]
//      >> (((first + idx[i]) * width) & 63)) & (2^width - 1), i in [0, n).
// `idx` is any index stream that keeps first + idx[i] inside the chunk:
// the 0,1,2,... stream (DecodeScratch::iota) for a contiguous decode, or
// a selection of block-local positions for a gather decode. width must be
// a nonzero member of kPackedWidths.
void UnpackBitsArray(const HybridConfig& cfg, const std::uint64_t* words,
                     std::uint8_t width, std::size_t first,
                     const std::uint64_t* idx, std::uint64_t* out,
                     std::size_t n);

// out[i] = in[i] + base — the frame-of-reference reconstruction.
void ForAddArray(const HybridConfig& cfg, std::uint64_t base,
                 const std::uint64_t* in, std::uint64_t* out, std::size_t n);

// out[i] = dict[in[i]] — dictionary code materialization.
void DictGatherArray(const HybridConfig& cfg, const std::uint64_t* dict,
                     const std::uint64_t* in, std::uint64_t* out,
                     std::size_t n);

// All (v, s, p) coordinates precompiled for each decode kernel.
const std::vector<HybridConfig>& UnpackBitsSupportedConfigs();
const std::vector<HybridConfig>& ForAddSupportedConfigs();
const std::vector<HybridConfig>& DictGatherSupportedConfigs();

// Op mixes for the candidate generator / port model / pressure check.
std::vector<OpClass> UnpackBitsKernelOps();
std::vector<OpClass> ForAddKernelOps();
std::vector<OpClass> DictGatherKernelOps();

// Live values / constants of the widest decode kernel (unpack_bits), for
// the register-pressure admission check.
inline constexpr int kUnpackBitsLiveValues = 3;
inline constexpr int kUnpackBitsConstants = 3;  // width, bit0, mask

}  // namespace hef::storage

#endif  // HEF_STORAGE_DECODE_H_
