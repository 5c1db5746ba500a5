// CPU-time sampling profiler for the traced run.
//
// A SIGPROF interval timer on process CPU time interrupts the run; the
// handler records the interrupted PC and the frame-pointer chain of return
// addresses into a buffer allocated up front (it neither allocates nor
// locks). The binary is built with -fno-omit-frame-pointer. Code outside the
// binary (libc, libstdc++.so) keeps no frame pointer, so when the PC lies
// there the handler scans the top words of the stack for the first return
// address into the binary, then follows the chain as usual.
//
// Write() stores addresses as offsets into the binary, ready for addr2line;
// layers.py attributes each sample to a src/ module. One Sampler may run at
// a time, on a single-threaded process.
#ifndef PERFBENCH_CC_SAMPLER_H_
#define PERFBENCH_CC_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Requested samples per second of CPU time. Prime, so the timer does not beat
// with periodic work. The kernel's timer tick may cap the achieved rate.
constexpr int kSamplerHz = 997;

class Sampler {
 public:
  static constexpr int kMaxDepth = 48;

  // Room for `capacity` samples; later ones are counted as overflowed.
  explicit Sampler(size_t capacity);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Start();
  void Stop();

  size_t samples() const;
  // Samples that arrived after the buffer filled.
  uint64_t overflowed() const;

  // One line per sample, innermost frame first: hex offsets into the binary
  // ('-' for a PC outside it). Return addresses are written minus one so
  // they resolve to the calling line. Returns false if the file cannot be
  // written.
  bool Write(const std::string& path) const;

 private:
  std::vector<uintptr_t> frames_;  // capacity * kMaxDepth, zero-terminated rows.
  bool running_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_SAMPLER_H_
