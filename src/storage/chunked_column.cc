#include "storage/chunked_column.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "table/key_filter.h"

namespace hef::storage {
namespace {

// Decodes the chunk-local rows first + idx[i], i in [0, n): bit-unpack
// into the staging buffer, then FoR-add or dictionary gather into out.
// `idx` is the iota stream for a contiguous range, or a sorted selection
// for a gather decode; the unpack kernel is the same either way.
void DecodePacked(const ColumnChunk& chunk, const HybridConfig& cfg,
                  std::size_t first, const std::uint64_t* idx,
                  std::size_t n, DecodeScratch& scratch,
                  std::uint64_t* out) {
  HEF_DCHECK(chunk.encoding != Encoding::kPlain);
  if (chunk.width == 0) {  // single-value chunk: no payload to unpack
    std::fill(out, out + n, chunk.encoding == Encoding::kDict
                                ? chunk.dict[0]
                                : chunk.reference);
    return;
  }
  scratch.EnsureCapacity(n);
  UnpackBitsArray(cfg, chunk.words.data(), chunk.width, first, idx,
                  scratch.stage(), n);
  if (chunk.encoding == Encoding::kFor) {
    ForAddArray(cfg, chunk.reference, scratch.stage(), out, n);
  } else {
    DictGatherArray(cfg, chunk.dict.data(), scratch.stage(), out, n);
  }
}

// Decodes rows [first, first + count) of one chunk into out.
void DecodeChunkRange(const ColumnChunk& chunk, const HybridConfig& cfg,
                      std::size_t first, std::size_t count,
                      DecodeScratch& scratch, std::uint64_t* out) {
  HEF_DCHECK(first + count <= chunk.rows);
  if (chunk.encoding == Encoding::kPlain) {
    std::memcpy(out, chunk.words.data() + first,
                count * sizeof(std::uint64_t));
    return;
  }
  scratch.EnsureCapacity(count);
  DecodePacked(chunk, cfg, first, scratch.iota(), count, scratch, out);
}

}  // namespace

ChunkedColumn ChunkedColumn::Encode(const std::uint64_t* values,
                                    std::size_t n, std::size_t chunk_rows,
                                    EncodingPolicy policy) {
  HEF_CHECK(chunk_rows > 0);
  ChunkedColumn column;
  column.size_ = n;
  column.chunk_rows_ = chunk_rows;
  column.chunks_.reserve((n + chunk_rows - 1) / chunk_rows);
  for (std::size_t begin = 0; begin < n; begin += chunk_rows) {
    const std::size_t rows = std::min(chunk_rows, n - begin);
    column.chunks_.push_back(EncodeChunk(values + begin, rows, policy));
  }
  return column;
}

void ChunkedColumn::DecodeRange(const HybridConfig& cfg, std::size_t begin,
                                std::size_t count, DecodeScratch& scratch,
                                std::uint64_t* out) const {
  HEF_CHECK_MSG(begin + count <= size_,
                "decode range [%zu, %zu) exceeds column size %zu", begin,
                begin + count, size_);
  while (count > 0) {
    const std::size_t c = begin / chunk_rows_;
    const std::size_t first = begin - c * chunk_rows_;
    const std::size_t take = std::min(count, chunk_rows_ - first);
    DecodeChunkRange(chunks_[c], cfg, first, take, scratch, out);
    begin += take;
    count -= take;
    out += take;
  }
}

const std::uint64_t* ChunkedColumn::DecodeBlock(const HybridConfig& cfg,
                                                std::size_t begin,
                                                std::size_t count,
                                                DecodeScratch& scratch,
                                                std::uint64_t* out) const {
  const std::size_t c = begin / chunk_rows_;
  const std::size_t first = begin - c * chunk_rows_;
  HEF_CHECK_MSG(c < chunks_.size() && first + count <= chunks_[c].rows,
                "decode block [%zu, %zu) is not inside one chunk", begin,
                begin + count);
  const ColumnChunk& chunk = chunks_[c];
  if (chunk.encoding == Encoding::kPlain) return chunk.words.data() + first;
  DecodeChunkRange(chunk, cfg, first, count, scratch, out);
  return out;
}

void ChunkedColumn::GatherDecode(const HybridConfig& cfg,
                                 std::size_t block_begin,
                                 const std::uint64_t* pos, std::size_t n,
                                 DecodeScratch& scratch,
                                 std::uint64_t* out) const {
  const std::size_t c = block_begin / chunk_rows_;
  const std::size_t first = block_begin - c * chunk_rows_;
  HEF_CHECK_MSG(c < chunks_.size(), "gather decode at row %zu past column end",
                block_begin);
  const ColumnChunk& chunk = chunks_[c];
  for (std::size_t i = 0; i < n; ++i) {
    HEF_DCHECK(first + pos[i] < chunk.rows);
  }
  if (chunk.encoding == Encoding::kPlain) {
    // The dictionary gather kernel is the plain row gather
    // out[i] = base[pos[i]], here over the chunk's raw values.
    DictGatherArray(cfg, chunk.words.data() + first, pos, out, n);
    return;
  }
  DecodePacked(chunk, cfg, first, pos, n, scratch, out);
}

bool ChunkedColumn::HasCodeFilter(std::size_t row) const {
  const ColumnChunk& chunk = chunks_[row / chunk_rows_];
  return chunk.encoding == Encoding::kFor &&
         (chunk.width == 0 || chunk.width >= 8);
}

ChunkedColumn::CodeFilter ChunkedColumn::FilterBlockCodes(
    const HybridConfig& cfg, std::size_t begin, std::size_t count,
    const KeyFilter& filter, std::uint64_t* flags) const {
  const std::size_t c = begin / chunk_rows_;
  const std::size_t first = begin - c * chunk_rows_;
  HEF_CHECK_MSG(c < chunks_.size() && first + count <= chunks_[c].rows,
                "code filter block [%zu, %zu) is not inside one chunk",
                begin, begin + count);
  HEF_CHECK_MSG(HasCodeFilter(begin), "chunk %zu has no code-space filter",
                c);
  const ColumnChunk& chunk = chunks_[c];
  if (chunk.width == 0) {
    return filter.Contains(chunk.reference) ? CodeFilter::kAll
                                            : CodeFilter::kNone;
  }
  CodeKeyFilterArray(cfg, filter, chunk.reference, chunk.words.data(),
                     chunk.width, first, flags, count);
  return CodeFilter::kPerRow;
}

std::size_t ChunkedColumn::EncodedBytes() const {
  std::size_t bytes = 0;
  for (const ColumnChunk& chunk : chunks_) {
    bytes += chunk.EncodedBytes();
  }
  return bytes;
}

}  // namespace hef::storage
