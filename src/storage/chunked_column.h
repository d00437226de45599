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

namespace hef::storage {

class ChunkedColumn {
 public:
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
