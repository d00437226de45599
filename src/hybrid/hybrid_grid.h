// HybridGrid — runtime (v, s, p) dispatch over a precompiled grid of
// HybridRunner instantiations.
//
// The paper's optimizer explores the (v, s, p) space by generating,
// compiling and timing candidate implementations offline. HybridGrid is the
// in-process equivalent: every coordinate in [0..MaxV] x [0..MaxS] x
// [1..MaxP] is instantiated at compile time, and the tuner walks the grid
// by timing the precompiled entry points. The source-text path (the literal
// reproduction of the paper's workflow) lives in src/codegen.

#ifndef HEF_HYBRID_HYBRID_GRID_H_
#define HEF_HYBRID_HYBRID_GRID_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "hybrid/hybrid_config.h"
#include "hybrid/hybrid_runner.h"

namespace hef {

template <class Kernel, int MaxV, int MaxS, int MaxP,
          class VecB = DefaultVectorBackend>
class HybridGrid {
  static_assert(MaxV >= 0 && MaxS >= 0 && MaxP >= 1);
  static_assert(MaxV + MaxS >= 1);

 public:
  using Elem = typename VecB::Elem;
  using In = typename hybrid_internal::KernelInElem<Kernel, Elem>::type;
  using Fn = void (*)(const Kernel&, const In*, Elem*, std::size_t);

  static constexpr int kMaxV = MaxV;
  static constexpr int kMaxS = MaxS;
  static constexpr int kMaxP = MaxP;

  // Returns the entry point for `cfg`, or nullptr when cfg lies outside the
  // grid or is invalid (v == 0 && s == 0).
  static Fn Lookup(const HybridConfig& cfg) {
    if (!cfg.valid() || cfg.v > MaxV || cfg.s > MaxS || cfg.p > MaxP) {
      return nullptr;
    }
    return kTable[FlatIndex(cfg.v, cfg.s, cfg.p)];
  }

  // Runs the kernel under `cfg`; aborts if the config is outside the grid
  // (tuners must filter with Lookup()/Supported() first).
  static void Run(const HybridConfig& cfg, const Kernel& kernel,
                  const In* in, Elem* out, std::size_t n) {
    Fn fn = Lookup(cfg);
    HEF_CHECK_MSG(fn != nullptr, "config %s outside compiled grid",
                  cfg.ToString().c_str());
    fn(kernel, in, out, n);
  }

  // All valid coordinates in the grid, in lexicographic (v, s, p) order.
  static std::vector<HybridConfig> Supported() {
    std::vector<HybridConfig> out;
    for (int v = 0; v <= MaxV; ++v) {
      for (int s = 0; s <= MaxS; ++s) {
        for (int p = 1; p <= MaxP; ++p) {
          HybridConfig cfg{v, s, p};
          if (cfg.valid()) out.push_back(cfg);
        }
      }
    }
    return out;
  }

 private:
  static constexpr std::size_t kTableSize =
      static_cast<std::size_t>(MaxV + 1) * (MaxS + 1) * MaxP;

  static constexpr std::size_t FlatIndex(int v, int s, int p) {
    return (static_cast<std::size_t>(v) * (MaxS + 1) + s) * MaxP + (p - 1);
  }

  template <std::size_t I>
  static constexpr Fn MakeEntry() {
    constexpr int v = static_cast<int>(I / ((MaxS + 1) * MaxP));
    constexpr int s = static_cast<int>((I / MaxP) % (MaxS + 1));
    constexpr int p = static_cast<int>(I % MaxP) + 1;
    if constexpr (v + s >= 1) {
      return &HybridRunner<Kernel, v, s, p, VecB>::Run;
    } else {
      return nullptr;
    }
  }

  template <std::size_t... Is>
  static constexpr std::array<Fn, kTableSize> MakeTable(
      std::index_sequence<Is...>) {
    return {MakeEntry<Is>()...};
  }

  static constexpr std::array<Fn, kTableSize> kTable =
      MakeTable(std::make_index_sequence<kTableSize>{});
};

}  // namespace hef

#endif  // HEF_HYBRID_HYBRID_GRID_H_
