// HybridRunner — the compile-time pack combinator.
//
// The paper's translator turns an operator template written in the hybrid
// intermediate description into code with `v` SIMD statements and `s` scalar
// statements per pack, replicated `p` times, each statement group operating
// on its own registers (Fig. 6: variables `data_v0_p0`, `data_s2_p1`, ...).
// HybridRunner produces exactly that statement layout through template
// instantiation instead of source-text generation: every (v, s, p) instance
// has its own kernel state struct (its registers), and the runner emits all
// Load statements, then all Compute statements, then all Store statements,
// stage-major across instances, so no two adjacent statements depend on each
// other — the inter-instruction interval drops from latency to throughput
// (paper §II-C, the vpgatherqq 26 -> 5 cycle example).
//
// A kernel models the MapKernel concept:
//
//   struct MyKernel {
//     template <typename B> struct State { ... registers ... };
//     template <typename B> void Load(State<B>& st, const uint64_t* in) const;
//     template <typename B> void Compute(State<B>& st) const;
//     template <typename B> void Store(uint64_t* out, const State<B>& st) const;
//   };
//
// A kernel whose input stream is narrower than the lanes it computes on
// (packed 8/16/32-bit codes read by a widening load) names that element
// type as `using InElem = ...;` and takes `const InElem*` in Load; the
// runner then walks the input in InElem units and the output in Elem
// units, at the same element offsets.
//
// Data layout per chunk (pack-major, matching Fig. 6(b)/(c)):
//   pack k occupies [k*(v*W + s), (k+1)*(v*W + s)) relative to the chunk
//   base, vector statements first (W = vector lanes), then scalars.

#ifndef HEF_HYBRID_HYBRID_RUNNER_H_
#define HEF_HYBRID_HYBRID_RUNNER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/macros.h"
#include "hid/hid.h"
#include "hybrid/hybrid_config.h"

namespace hef {

namespace hybrid_internal {

// Compile-time for-each: invokes f(integral_constant<int, 0>) ...
// f(integral_constant<int, N-1>) in order, fully unrolled.
template <class F, std::size_t... Is>
HEF_INLINE void ForEachImpl(F&& f, std::index_sequence<Is...>) {
  (f(std::integral_constant<int, static_cast<int>(Is)>{}), ...);
}

template <int N, class F>
HEF_INLINE void ForEach(F&& f) {
  ForEachImpl(std::forward<F>(f), std::make_index_sequence<N>{});
}

// The kernel's input element type: Kernel::InElem when it declares one,
// else the backend's lane type.
template <class Kernel, class Elem, class = void>
struct KernelInElem {
  using type = Elem;
};
template <class Kernel, class Elem>
struct KernelInElem<Kernel, Elem, std::void_t<typename Kernel::InElem>> {
  using type = typename Kernel::InElem;
};

}  // namespace hybrid_internal

// Runs `Kernel` over n elements with V vector + S scalar statements per
// pack and P packs. VecB is the vector backend; scalar statements use the
// backend's ScalarCompanion (the same-width scalar lowering — Table II
// pairs every vector type with a scalar element type). V == 0 yields a
// purely scalar implementation, S == 0 a purely SIMD one.
template <class Kernel, int V, int S, int P, class VecB = DefaultVectorBackend>
class HybridRunner {
  static_assert(P >= 1, "pack size must be at least 1");
  static_assert(V >= 0 && S >= 0 && V + S >= 1,
                "need at least one statement per pack");

 public:
  using Elem = typename VecB::Elem;
  using In = typename hybrid_internal::KernelInElem<Kernel, Elem>::type;
  using SclB = typename VecB::ScalarCompanion;
  static_assert(std::is_same_v<Elem, typename SclB::Elem>,
                "vector backend and scalar companion must agree on the "
                "element type");

  static constexpr int kLanes = VecB::kLanes;
  // Elements consumed per fully unrolled chunk.
  static constexpr int kChunk = P * (V * kLanes + S);

  static HybridConfig Config() { return HybridConfig{V, S, P}; }

  // Applies the kernel to in[0..n) writing out[0..n). The bulk runs in
  // hybrid chunks; the tail (n % kChunk) runs on the scalar backend.
  static HEF_NOINLINE void Run(const Kernel& kernel,
                               const In* HEF_RESTRICT in,
                               Elem* HEF_RESTRICT out, std::size_t n) {
    using hybrid_internal::ForEach;
    using VState = typename Kernel::template State<VecB>;
    using SState = typename Kernel::template State<SclB>;

    constexpr int kPackSpan = V * kLanes + S;
    std::size_t i = 0;

    // One state struct per (statement, pack) instance: these are the
    // translator's per-instance register sets.
    std::array<VState, static_cast<std::size_t>(V) * P == 0
                           ? 1
                           : static_cast<std::size_t>(V) * P>
        vstate;
    std::array<SState, static_cast<std::size_t>(S) * P == 0
                           ? 1
                           : static_cast<std::size_t>(S) * P>
        sstate;

    for (; i + kChunk <= n; i += kChunk) {
      const In* base = in + i;
      Elem* obase = out + i;

      // Stage 1: all loads, stage-major across every instance.
      ForEach<P>([&](auto pk) {
        constexpr int kP = pk.value;
        ForEach<V>([&](auto vi) {
          constexpr int kV = vi.value;
          kernel.template Load<VecB>(vstate[kP * V + kV],
                                     base + kP * kPackSpan + kV * kLanes);
        });
        ForEach<S>([&](auto si) {
          constexpr int kS = si.value;
          kernel.template Load<SclB>(
              sstate[kP * S + kS], base + kP * kPackSpan + V * kLanes + kS);
        });
      });

      // Stage 2: all computes.
      ForEach<P>([&](auto pk) {
        constexpr int kP = pk.value;
        ForEach<V>([&](auto vi) {
          constexpr int kV = vi.value;
          kernel.template Compute<VecB>(vstate[kP * V + kV]);
        });
        ForEach<S>([&](auto si) {
          constexpr int kS = si.value;
          kernel.template Compute<SclB>(sstate[kP * S + kS]);
        });
      });

      // Stage 3: all stores.
      ForEach<P>([&](auto pk) {
        constexpr int kP = pk.value;
        ForEach<V>([&](auto vi) {
          constexpr int kV = vi.value;
          kernel.template Store<VecB>(obase + kP * kPackSpan + kV * kLanes,
                                      vstate[kP * V + kV]);
        });
        ForEach<S>([&](auto si) {
          constexpr int kS = si.value;
          kernel.template Store<SclB>(
              obase + kP * kPackSpan + V * kLanes + kS, sstate[kP * S + kS]);
        });
      });
    }

    // Scalar tail.
    for (; i < n; ++i) {
      SState st;
      kernel.template Load<SclB>(st, in + i);
      kernel.template Compute<SclB>(st);
      kernel.template Store<SclB>(out + i, st);
    }
  }
};

}  // namespace hef

#endif  // HEF_HYBRID_HYBRID_RUNNER_H_
