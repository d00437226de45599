#include "tuner/kernel_registry.h"

#include <cctype>

#include "algo/crc64.h"
#include "algo/murmur.h"
#include "codegen/operator_template.h"
#include "engine/query_id.h"
#include "engine/star_plan.h"
#include "storage/decode.h"
#include "storage/decode_templates.h"
#include "table/key_filter.h"
#include "table/probe.h"

namespace hef {

namespace {

// The SplitMix64-style finalizer example; pure register pipeline, same
// tuning space shape as murmur (examples/templates/mix64.hid is the
// file-based twin).
constexpr char kMix64Template[] =
    "operator mix64\n"
    "const c1 = 0xbf58476d1ce4e5b9\n"
    "const c2 = 0x94d049bb133111eb\n"
    "var x\n"
    "var t\n"
    "body:\n"
    "x = hi_load_epi64(IN)\n"
    "t = hi_srli_epi64(x, 30)\n"
    "x = hi_xor_epi64(x, t)\n"
    "x = hi_mullo_epi64(x, c1)\n"
    "t = hi_srli_epi64(x, 27)\n"
    "x = hi_xor_epi64(x, t)\n"
    "x = hi_mullo_epi64(x, c2)\n"
    "t = hi_srli_epi64(x, 31)\n"
    "x = hi_xor_epi64(x, t)\n"
    "hi_store_epi64(OUT, x)\n";

// The hash-probe pipeline every SSB join runs (table/probe.h Compute):
// the murmur finalizer chain, then the bucket-mask and the bucket-array
// gather. The mask constant makes the gather bounds-provable — the index
// is h & 0xffff < 65536 by construction, which HID013 verifies against
// the declared extent.
constexpr char kProbeHashTemplate[] =
    "operator probe_hash\n"
    "ptr buckets [65536]\n"
    "const m = 0xc6a4a7935bd1e995\n"
    "const h0 = 0xb160ea8090f805ba\n"
    "const mask = 0xffff\n"
    "var data\n"
    "var k\n"
    "var h\n"
    "var slot\n"
    "body:\n"
    "data = hi_load_epi64(IN)\n"
    "k = hi_mullo_epi64(data, m)\n"
    "data = hi_srli_epi64(k, 47)\n"
    "k = hi_xor_epi64(data, k)\n"
    "k = hi_mullo_epi64(k, m)\n"
    "h = hi_xor_epi64(h0, k)\n"
    "h = hi_mullo_epi64(h, m)\n"
    "data = hi_srli_epi64(h, 47)\n"
    "h = hi_xor_epi64(h, data)\n"
    "h = hi_mullo_epi64(h, m)\n"
    "data = hi_srli_epi64(h, 47)\n"
    "h = hi_xor_epi64(h, data)\n"
    "slot = hi_and_epi64(h, mask)\n"
    "slot = hi_gather_epi64(buckets, slot)\n"
    "hi_store_epi64(OUT, slot)\n";

std::vector<ProvableKernel> BuildRegistry() {
  std::vector<ProvableKernel> kernels;
  kernels.push_back({"murmur", "murmur", BuiltinMurmurTemplate(),
                     MurmurSupportedConfigs()});
  kernels.push_back({"crc64", "crc64", BuiltinCrc64Template(),
                     Crc64SupportedConfigs()});
  kernels.push_back(
      {"mix64", "mix64", kMix64Template, MurmurSupportedConfigs()});
  kernels.push_back({"unpack_bits", "unpack_bits",
                     storage::UnpackBitsTemplateText(16),
                     storage::UnpackBitsSupportedConfigs()});
  // FoR reconstruction over 32-bit deltas (the widest packed width) from
  // the SSB date epoch — wraparound-free by HID014 given these ranges.
  kernels.push_back({"for_add", "for_add",
                     storage::ForAddTemplateText(19920101, 0xffffffffULL),
                     storage::ForAddSupportedConfigs()});
  kernels.push_back({"dict_gather", "dict_gather",
                     storage::DictGatherTemplateText(),
                     storage::DictGatherSupportedConfigs()});
  // The star plan's exact semi-join filter at the widest span the planner
  // builds: the proof covers every 64-bit key, clamped into the bitmap.
  kernels.push_back({"key_filter", "key_filter",
                     KeyFilterTemplateText(kKeyFilterMaxSpan),
                     KeyFilterSupportedConfigs()});
  // Its code-space form at every code width the chunk scan runs it on:
  // the proof covers every W-bit code under any rebased lo.
  for (const std::uint8_t width : {8, 16, 32}) {
    kernels.push_back({"code_key_filter_w" + std::to_string(width),
                       "code_key_filter",
                       CodeKeyFilterTemplateText(width, kKeyFilterMaxSpan),
                       CodeKeyFilterSupportedConfigs()});
  }

  // One entry per SSB query. The Q1.x plans are scan-dominated — their
  // hybrid kernel is the frame-of-reference decode; every Q2–Q4 plan is
  // join-dominated — the probe pipeline above.
  for (QueryId id : AllQueries()) {
    std::string name = QueryName(id);  // "Q2.1"
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    const bool scan_bound = name.compare(0, 2, "q1") == 0;
    kernels.push_back(
        {"ssb_" + name, scan_bound ? "for_add" : "probe_hash",
         scan_bound
             ? storage::ForAddTemplateText(19920101, 0xffffffffULL)
             : std::string(kProbeHashTemplate),
         scan_bound ? storage::ForAddSupportedConfigs()
                    : ProbeSupportedConfigs()});
  }
  return kernels;
}

}  // namespace

const std::vector<ProvableKernel>& ProvableKernels() {
  static const std::vector<ProvableKernel> kernels = BuildRegistry();
  return kernels;
}

}  // namespace hef
