#include "sim/memlog.hpp"

namespace dopar::sim {

uint64_t MemLog::digest() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const AccessRecord& r : trace_) {
    mix(r.buf);
    mix(r.byte_off);
    mix(r.bytes);
  }
  return h;
}

}  // namespace dopar::sim
