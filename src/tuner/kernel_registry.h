// Provable-kernel registry — one place that enumerates every kernel the
// system ships (algorithm kernels, storage decode steps, and the HID
// shape behind each of the 13 SSB query pipelines) together with the HID
// template that models it and the (v, s, p) grid its runtime actually
// compiles. `hef lint --prove` walks this list to certify the whole
// surface, the CI hid-lint-report job fails when any entry stops proving,
// and tests pin the registry's completeness.

#ifndef HEF_TUNER_KERNEL_REGISTRY_H_
#define HEF_TUNER_KERNEL_REGISTRY_H_

#include <string>
#include <vector>

#include "hybrid/hybrid_config.h"

namespace hef {

struct ProvableKernel {
  // Registry key ("murmur", "unpack_bits", "ssb_q2.1", ...).
  std::string name;
  // Runtime kernel the template models ("murmur", "probe_hash", ...);
  // SSB entries share a kernel across queries.
  std::string kernel;
  // The HID template text (parse with OperatorTemplate::Parse).
  std::string template_text;
  // The (v, s, p) grid the kernel's runtime precompiles — the set of
  // configurations the tuner can pick, all of which must prove.
  std::vector<HybridConfig> grid;
};

// Every registered kernel: murmur, crc64, mix64, the three storage
// decode templates, the star plan's key filter and its code-space form
// at each packed code width (8, 16, 32), and one entry per SSB
// query (Q1.x map to the frame-of-reference decode that dominates their
// scan; Q2–Q4 map to the hash-probe pipeline every join in their plans
// runs).
const std::vector<ProvableKernel>& ProvableKernels();

}  // namespace hef

#endif  // HEF_TUNER_KERNEL_REGISTRY_H_
