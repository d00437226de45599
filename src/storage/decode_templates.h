// HID template text for the three storage decode kernels, parameterized
// the way the runtime parameterizes them (pack width, frame-of-reference
// base). The texts carry the proof metadata the semantic verifier needs —
// ptr extents, range IN/OUT declarations, nowrap — derived from the
// storage engine's own invariants (kDefaultChunkRows rows per chunk,
// kDictDistinctCap dictionary entries, widths from kPackedWidths), so
// `hef lint --prove` and the tuner's semantic admission can prove the
// decode templates in-bounds and overflow-free without guessing.
//
// Text-only on purpose: hef_storage does not link hef_codegen; callers
// (tuner registry, CLI, tests) parse these strings themselves.

#ifndef HEF_STORAGE_DECODE_TEMPLATES_H_
#define HEF_STORAGE_DECODE_TEMPLATES_H_

#include <cstdint>
#include <string>

namespace hef::storage {

// unpack_bits at a fixed pack width (a nonzero member of kPackedWidths):
// gather + variable shift + mask over one chunk's packed words. Declares
// `ptr words` with the extent the chunk geometry implies, range IN as
// 0..kDefaultChunkRows-1 (any in-chunk index stream: the iota of a
// contiguous decode or the selected positions of a gather decode), and
// range OUT 0..2^width-1.
std::string UnpackBitsTemplateText(std::uint8_t width);

// for_add at a fixed frame-of-reference base: declares the unpacked-delta
// input range and `nowrap` — reconstruction must not overflow, which is
// exactly what HID014 proves given the declared ranges.
std::string ForAddTemplateText(std::uint64_t base,
                               std::uint64_t delta_max);

// dict_gather: codes bounded by kDictDistinctCap index a dictionary of
// that declared extent.
std::string DictGatherTemplateText();

}  // namespace hef::storage

#endif  // HEF_STORAGE_DECODE_TEMPLATES_H_
