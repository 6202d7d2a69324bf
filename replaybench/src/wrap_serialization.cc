// core serialization interposer: EncodeRows / DecodeRows spans. Their self
// time excludes the nested codec spans (LZ, CRC-32) on the same thread.
// CMakeLists.txt turns every __wrap_ definition here into a --wrap flag.
#include "core/serialization.h"
#include "spans.h"

using replaybench::spans::Scope;

namespace {
const bool kLinked = replaybench::spans::MarkLayer("serialization");
}  // namespace

extern "C" {

fsd::core::EncodeResult
__real__ZN3fsd4core10EncodeRowsERKSt3mapIiNS_6linalg12SparseVectorESt4lessIiESaISt4pairIKiS3_EEERKSt6vectorIiSaIiEEmRKNS0_9WireCodecE(
    const fsd::linalg::ActivationMap& source,
    const std::vector<int32_t>& row_ids, uint64_t max_chunk_bytes,
    const fsd::core::WireCodec& codec);
fsd::core::EncodeResult
__wrap__ZN3fsd4core10EncodeRowsERKSt3mapIiNS_6linalg12SparseVectorESt4lessIiESaISt4pairIKiS3_EEERKSt6vectorIiSaIiEEmRKNS0_9WireCodecE(
    const fsd::linalg::ActivationMap& source,
    const std::vector<int32_t>& row_ids, uint64_t max_chunk_bytes,
    const fsd::core::WireCodec& codec) {
  Scope span(replaybench::spans::kEncodeRows);
  fsd::core::EncodeResult out =
      __real__ZN3fsd4core10EncodeRowsERKSt3mapIiNS_6linalg12SparseVectorESt4lessIiESaISt4pairIKiS3_EEERKSt6vectorIiSaIiEEmRKNS0_9WireCodecE(
          source, row_ids, max_chunk_bytes, codec);
  for (const fsd::core::RowChunk& chunk : out.chunks) {
    span.AddBytesIn(chunk.raw_bytes);
    span.AddBytesOut(chunk.wire.size());
  }
  return out;
}

fsd::Status
__real__ZN3fsd4core10DecodeRowsERKSt6vectorIhSaIhEEPSt3mapIiNS_6linalg12SparseVectorESt4lessIiESaISt4pairIKiS8_EEE(
    const fsd::Bytes& wire, fsd::linalg::ActivationMap* out);
fsd::Status
__wrap__ZN3fsd4core10DecodeRowsERKSt6vectorIhSaIhEEPSt3mapIiNS_6linalg12SparseVectorESt4lessIiESaISt4pairIKiS8_EEE(
    const fsd::Bytes& wire, fsd::linalg::ActivationMap* out) {
  Scope span(replaybench::spans::kDecodeRows);
  span.AddBytesIn(wire.size());
  return __real__ZN3fsd4core10DecodeRowsERKSt6vectorIhSaIhEEPSt3mapIiNS_6linalg12SparseVectorESt4lessIiESaISt4pairIKiS8_EEE(
      wire, out);
}

}  // extern "C"
