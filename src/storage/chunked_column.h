// A column stored as independently encoded fixed-size chunks.

#ifndef HEF_STORAGE_CHUNKED_COLUMN_H_
#define HEF_STORAGE_CHUNKED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hybrid/hybrid_config.h"
#include "storage/chunk.h"
#include "storage/decode.h"
#include "storage/encoding.h"

namespace hef {
class KeyFilter;
}  // namespace hef

namespace hef::storage {

class ChunkedColumn {
 public:
  // FilterBlockCodes' answer for one block.
  enum class CodeFilter : std::uint8_t {
    kPerRow,  // flags[0..count) hold 1 (the key can match) or 0
    kAll,     // single-value chunk whose key passes: every row does
    kNone,    // single-value chunk whose key fails: no row does
  };

  ChunkedColumn() = default;

  // Encodes values[0..n) into chunks of chunk_rows values each (the last
  // chunk may be short). chunk_rows must be > 0.
  static ChunkedColumn Encode(const std::uint64_t* values, std::size_t n,
                              std::size_t chunk_rows, EncodingPolicy policy);

  std::size_t size() const { return size_; }
  std::size_t chunk_rows() const { return chunk_rows_; }
  std::size_t num_chunks() const { return chunks_.size(); }
  const ColumnChunk& chunk(std::size_t c) const { return chunks_[c]; }

  // Decodes rows [begin, begin + count) into out, crossing chunk
  // boundaries as needed. `scratch` supplies the iota stream and staging
  // buffer; it must not be shared across threads.
  void DecodeRange(const HybridConfig& cfg, std::size_t begin,
                   std::size_t count, DecodeScratch& scratch,
                   std::uint64_t* out) const;

  // Rows [begin, begin + count), which must lie in one chunk (a pipeline
  // block). A plain chunk hands out a pointer into its own payload with
  // no copy; other encodings decode into `out` and return it.
  const std::uint64_t* DecodeBlock(const HybridConfig& cfg, std::size_t begin,
                                   std::size_t count, DecodeScratch& scratch,
                                   std::uint64_t* out) const;

  // Late materialisation: out[i] = row block_begin + pos[i], i in [0, n).
  // Only the selected rows are decoded — FoR/dict run the unpack kernel
  // with `pos` as its index stream, plain chunks gather directly. Every
  // block_begin + pos[i] must lie in the chunk holding block_begin.
  void GatherDecode(const HybridConfig& cfg, std::size_t block_begin,
                    const std::uint64_t* pos, std::size_t n,
                    DecodeScratch& scratch, std::uint64_t* out) const;

  // True when the chunk holding `row` can answer FilterBlockCodes: FoR
  // chunks of width 0, 8, 16 or 32. Plain and dict chunks and FoR widths
  // 1, 2 and 4 cannot; callers decode and filter the values instead.
  bool HasCodeFilter(std::size_t row) const;

  // Code-space semi-join over rows [begin, begin + count), which must lie
  // in one chunk (a pipeline block) that HasCodeFilter: tests each row's
  // value against `filter` on the packed FoR codes, without decoding
  // them (CodeKeyFilterArray, the filter rebased onto the chunk's
  // reference, under `cfg`). A single-value chunk answers with one test.
  CodeFilter FilterBlockCodes(const HybridConfig& cfg, std::size_t begin,
                              std::size_t count, const KeyFilter& filter,
                              std::uint64_t* flags) const;

  // Payload bytes actually held (packed words + dictionaries + chunk
  // metadata) vs. the flat 8-bytes-per-row layout.
  std::size_t EncodedBytes() const;
  std::size_t PlainBytes() const { return size_ * sizeof(std::uint64_t); }

 private:
  std::size_t size_ = 0;
  std::size_t chunk_rows_ = kDefaultChunkRows;
  std::vector<ColumnChunk> chunks_;
};

}  // namespace hef::storage

#endif  // HEF_STORAGE_CHUNKED_COLUMN_H_
