// codec layer interposer: LZ compress/decompress and CRC-32 spans.
// The mangled names below are the link-time identity of the public entry
// points; CMakeLists.txt turns every __wrap_ definition in this file into
// a -Wl,--wrap flag.
#include "codec/crc32.h"
#include "codec/lz.h"
#include "spans.h"

using replaybench::spans::Scope;

namespace {
const bool kLinked = replaybench::spans::MarkLayer("codec");
}  // namespace

extern "C" {

fsd::Bytes __real__ZN3fsd5codec10LzCompressERKSt6vectorIhSaIhEERKNS0_9LzOptionsE(
    const fsd::Bytes& input, const fsd::codec::LzOptions& options);
fsd::Bytes __wrap__ZN3fsd5codec10LzCompressERKSt6vectorIhSaIhEERKNS0_9LzOptionsE(
    const fsd::Bytes& input, const fsd::codec::LzOptions& options) {
  Scope span(replaybench::spans::kLzCompress);
  span.AddBytesIn(input.size());
  fsd::Bytes out =
      __real__ZN3fsd5codec10LzCompressERKSt6vectorIhSaIhEERKNS0_9LzOptionsE(
          input, options);
  span.AddBytesOut(out.size());
  return out;
}

fsd::Result<fsd::Bytes> __real__ZN3fsd5codec12LzDecompressERKSt6vectorIhSaIhEE(
    const fsd::Bytes& input);
fsd::Result<fsd::Bytes> __wrap__ZN3fsd5codec12LzDecompressERKSt6vectorIhSaIhEE(
    const fsd::Bytes& input) {
  Scope span(replaybench::spans::kLzDecompress);
  span.AddBytesIn(input.size());
  fsd::Result<fsd::Bytes> out =
      __real__ZN3fsd5codec12LzDecompressERKSt6vectorIhSaIhEE(input);
  if (out.ok()) span.AddBytesOut(out->size());
  return out;
}

uint32_t __real__ZN3fsd5codec5Crc32EPKhmj(const uint8_t* data, size_t size,
                                          uint32_t seed);
uint32_t __wrap__ZN3fsd5codec5Crc32EPKhmj(const uint8_t* data, size_t size,
                                          uint32_t seed) {
  Scope span(replaybench::spans::kCrc32);
  span.AddBytesIn(size);
  return __real__ZN3fsd5codec5Crc32EPKhmj(data, size, seed);
}

}  // extern "C"
