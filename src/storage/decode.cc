#include "storage/decode.h"

#include "common/macros.h"
#include "hybrid/hybrid_grid.h"
#include "storage/chunk.h"

namespace hef::storage {

namespace {

// Map kernel: out[i] = (words[(in[i]*width + bit0) >> 6]
//                       >> ((in[i]*width + bit0) & 63)) & mask.
// The input stream is the iota indices (contiguous decode) or selected
// positions (gather decode); width/bit0/mask are broadcast constants. Mirrors examples/templates/unpack_bits.hid.
struct UnpackBitsKernel {
  const std::uint64_t* words = nullptr;
  std::uint64_t width = 0;
  std::uint64_t bit0 = 0;
  std::uint64_t mask = 0;

  template <typename B>
  struct State {
    typename B::Reg v;
  };

  template <typename B>
  HEF_INLINE void Load(State<B>& st, const std::uint64_t* in) const {
    st.v = B::LoadU(in);
  }
  template <typename B>
  HEF_INLINE void Compute(State<B>& st) const {
    const auto off =
        B::Add(B::Mul(st.v, B::Set1(width)), B::Set1(bit0));
    const auto word = B::Gather(words, B::template Srli<6>(off));
    st.v = B::And(B::SrlVar(word, B::And(off, B::Set1(63))), B::Set1(mask));
  }
  template <typename B>
  HEF_INLINE void Store(std::uint64_t* out, const State<B>& st) const {
    B::StoreU(out, st.v);
  }
};

// Map kernel: out[i] = in[i] + base. Mirrors examples/templates/for_add.hid.
struct ForAddKernel {
  std::uint64_t base = 0;

  template <typename B>
  struct State {
    typename B::Reg v;
  };

  template <typename B>
  HEF_INLINE void Load(State<B>& st, const std::uint64_t* in) const {
    st.v = B::LoadU(in);
  }
  template <typename B>
  HEF_INLINE void Compute(State<B>& st) const {
    st.v = B::Add(st.v, B::Set1(base));
  }
  template <typename B>
  HEF_INLINE void Store(std::uint64_t* out, const State<B>& st) const {
    B::StoreU(out, st.v);
  }
};

// Map kernel: out[i] = dict[in[i]]. Mirrors
// examples/templates/dict_gather.hid.
struct DictGatherKernel {
  const std::uint64_t* dict = nullptr;

  template <typename B>
  struct State {
    typename B::Reg v;
  };

  template <typename B>
  HEF_INLINE void Load(State<B>& st, const std::uint64_t* in) const {
    st.v = B::LoadU(in);
  }
  template <typename B>
  HEF_INLINE void Compute(State<B>& st) const {
    st.v = B::Gather(dict, st.v);
  }
  template <typename B>
  HEF_INLINE void Store(std::uint64_t* out, const State<B>& st) const {
    B::StoreU(out, st.v);
  }
};

using UnpackBitsGrid = HybridGrid<UnpackBitsKernel, /*MaxV=*/2, /*MaxS=*/4,
                                  /*MaxP=*/3>;
using ForAddGrid = HybridGrid<ForAddKernel, /*MaxV=*/2, /*MaxS=*/4,
                              /*MaxP=*/3>;
using DictGatherGrid = HybridGrid<DictGatherKernel, /*MaxV=*/2, /*MaxS=*/4,
                                  /*MaxP=*/3>;

}  // namespace

void DecodeScratch::EnsureCapacity(std::size_t n) {
  if (iota_.size() >= n) return;
  iota_.Allocate(n, /*padding_elems=*/kCacheLineBytes / sizeof(std::uint64_t));
  stage_.Allocate(n, /*padding_elems=*/kCacheLineBytes / sizeof(std::uint64_t));
  for (std::size_t i = 0; i < n; ++i) {
    iota_[i] = i;
  }
}

void UnpackBitsArray(const HybridConfig& cfg, const std::uint64_t* words,
                     std::uint8_t width, std::size_t first,
                     const std::uint64_t* idx, std::uint64_t* out,
                     std::size_t n) {
  HEF_DCHECK(width > 0 && width <= 32 && 64 % width == 0);
  UnpackBitsKernel kernel;
  kernel.words = words;
  kernel.width = width;
  kernel.bit0 = first * width;
  kernel.mask = (1ULL << width) - 1;
  UnpackBitsGrid::Run(cfg, kernel, idx, out, n);
}

void ForAddArray(const HybridConfig& cfg, std::uint64_t base,
                 const std::uint64_t* in, std::uint64_t* out, std::size_t n) {
  ForAddKernel kernel;
  kernel.base = base;
  ForAddGrid::Run(cfg, kernel, in, out, n);
}

void DictGatherArray(const HybridConfig& cfg, const std::uint64_t* dict,
                     const std::uint64_t* in, std::uint64_t* out,
                     std::size_t n) {
  DictGatherKernel kernel;
  kernel.dict = dict;
  DictGatherGrid::Run(cfg, kernel, in, out, n);
}

const std::vector<HybridConfig>& UnpackBitsSupportedConfigs() {
  static const std::vector<HybridConfig>* configs =
      new std::vector<HybridConfig>(UnpackBitsGrid::Supported());
  return *configs;
}

const std::vector<HybridConfig>& ForAddSupportedConfigs() {
  static const std::vector<HybridConfig>* configs =
      new std::vector<HybridConfig>(ForAddGrid::Supported());
  return *configs;
}

const std::vector<HybridConfig>& DictGatherSupportedConfigs() {
  static const std::vector<HybridConfig>* configs =
      new std::vector<HybridConfig>(DictGatherGrid::Supported());
  return *configs;
}

std::vector<OpClass> UnpackBitsKernelOps() {
  // SrlVar shares the shift pipe with hi_srli, so it reports as
  // kShiftRight in the port model.
  return {OpClass::kLoad,       OpClass::kMul,  OpClass::kAdd,
          OpClass::kShiftRight, OpClass::kGather, OpClass::kShiftRight,
          OpClass::kAnd,        OpClass::kAnd,  OpClass::kStore};
}

std::vector<OpClass> ForAddKernelOps() {
  return {OpClass::kLoad, OpClass::kAdd, OpClass::kStore};
}

std::vector<OpClass> DictGatherKernelOps() {
  return {OpClass::kLoad, OpClass::kGather, OpClass::kStore};
}

}  // namespace hef::storage
