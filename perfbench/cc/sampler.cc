#include "perfbench/cc/sampler.h"

#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cstdio>
#include <cstring>

#include "src/common/logging.h"

namespace perfbench {

namespace {

#if !defined(__x86_64__)
#error "perfbench's sampler reads x86-64 registers from the signal context"
#endif

// Stack words scanned for a return address when the PC is outside the binary,
// and for the frame record above it.
constexpr int kScanWords = 64;
constexpr int kRecordScanWords = 256;

// Handler state. Written before the timer starts and read only by the
// handler, which runs on the one thread being profiled.
uintptr_t* g_frames = nullptr;
size_t g_capacity = 0;
uintptr_t g_text_lo = 0;
uintptr_t g_text_hi = 0;
uintptr_t g_load_bias = 0;
uintptr_t g_stack_hi = 0;
std::atomic<size_t> g_count{0};
std::atomic<uint64_t> g_overflowed{0};
struct sigaction g_old_action;

bool InText(uintptr_t addr) { return addr >= g_text_lo && addr < g_text_hi; }

int FindMainText(struct dl_phdr_info* info, size_t, void*) {
  // The first object reported is the main program.
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
      g_load_bias = info->dlpi_addr;
      g_text_lo = info->dlpi_addr + ph.p_vaddr;
      g_text_hi = g_text_lo + ph.p_memsz;
      return 1;
    }
  }
  return 1;
}

// Reads raw stack words of other frames, which AddressSanitizer would report
// as redzone overflows.
__attribute__((no_sanitize("address"))) void OnSigprof(int, siginfo_t*, void* context) {
  const size_t i = g_count.load(std::memory_order_relaxed);
  if (i >= g_capacity) {
    g_overflowed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto* uc = static_cast<const ucontext_t*>(context);
  const uintptr_t pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const uintptr_t sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  uintptr_t fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  uintptr_t* row = g_frames + i * Sampler::kMaxDepth;
  int depth = 0;
  row[depth++] = pc;
  if (!InText(pc)) {
    const auto* stack = reinterpret_cast<const uintptr_t*>(sp);
    for (int k = 0; k < kScanWords && sp + 8 * (k + 1) <= g_stack_hi; ++k) {
      if (!InText(stack[k])) {
        continue;
      }
      row[depth++] = stack[k];
      // Library code may use rbp as a general register. Unless rbp still
      // points at a frame record above that return address, resume the chain
      // at the first word pair above it that looks like one: a link further
      // up the stack followed by a return address into the binary.
      const uintptr_t ret_slot = sp + 8 * k;
      const bool rbp_ok = fp > ret_slot && fp % 8 == 0 && fp + 16 <= g_stack_hi &&
                          InText(reinterpret_cast<const uintptr_t*>(fp)[1]);
      if (!rbp_ok) {
        fp = 0;
        for (int j = k + 1; j < kRecordScanWords && sp + 8 * (j + 2) <= g_stack_hi; ++j) {
          const uintptr_t slot = sp + 8 * j;
          if (stack[j] > slot && stack[j] < g_stack_hi && stack[j] % 8 == 0 &&
              InText(stack[j + 1])) {
            fp = slot;
            break;
          }
        }
      }
      break;
    }
  }
  // Every dereference stays inside [sp, stack top) and the chain must climb.
  while (depth < Sampler::kMaxDepth - 1 && fp >= sp && fp + 16 <= g_stack_hi && fp % 8 == 0) {
    const uintptr_t next = reinterpret_cast<const uintptr_t*>(fp)[0];
    const uintptr_t ret = reinterpret_cast<const uintptr_t*>(fp)[1];
    if (!InText(ret)) {
      break;
    }
    row[depth++] = ret;
    if (next <= fp) {
      break;
    }
    fp = next;
  }
  row[depth] = 0;
  g_count.store(i + 1, std::memory_order_relaxed);
}

void SetTimer(int hz) {
  struct itimerval timer;
  std::memset(&timer, 0, sizeof(timer));
  if (hz > 0) {
    timer.it_interval.tv_usec = 1000000 / hz;
    timer.it_value = timer.it_interval;
  }
  CHECK_EQ(setitimer(ITIMER_PROF, &timer, nullptr), 0) << "setitimer failed";
}

}  // namespace

Sampler::Sampler(size_t capacity) : frames_(capacity * kMaxDepth, 0) {
  CHECK(capacity > 0);
}

Sampler::~Sampler() { Stop(); }

void Sampler::Start() {
  CHECK(!running_ && g_frames == nullptr) << "one Sampler at a time";
  dl_iterate_phdr(FindMainText, nullptr);
  CHECK(g_text_hi > g_text_lo) << "cannot find the binary's text segment";
  pthread_attr_t attr;
  CHECK_EQ(pthread_getattr_np(pthread_self(), &attr), 0);
  void* stack_lo = nullptr;
  size_t stack_size = 0;
  CHECK_EQ(pthread_attr_getstack(&attr, &stack_lo, &stack_size), 0);
  pthread_attr_destroy(&attr);
  g_stack_hi = reinterpret_cast<uintptr_t>(stack_lo) + stack_size;
  g_frames = frames_.data();
  g_capacity = frames_.size() / kMaxDepth;
  g_count.store(0);
  g_overflowed.store(0);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnSigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  CHECK_EQ(sigaction(SIGPROF, &action, &g_old_action), 0);
  running_ = true;
  SetTimer(kSamplerHz);
}

void Sampler::Stop() {
  if (!running_) {
    return;
  }
  SetTimer(0);
  CHECK_EQ(sigaction(SIGPROF, &g_old_action, nullptr), 0);
  g_frames = nullptr;
  running_ = false;
}

size_t Sampler::samples() const { return g_count.load(); }

uint64_t Sampler::overflowed() const { return g_overflowed.load(); }

bool Sampler::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const size_t n = samples();
  for (size_t i = 0; i < n; ++i) {
    const uintptr_t* row = frames_.data() + i * kMaxDepth;
    for (int d = 0; d < kMaxDepth && row[d] != 0; ++d) {
      if (!InText(row[d])) {
        std::fputs(d == 0 ? "-" : " -", out);
        continue;
      }
      const uintptr_t offset = row[d] - g_load_bias - (d == 0 ? 0 : 1);
      std::fprintf(out, d == 0 ? "%lx" : " %lx", static_cast<unsigned long>(offset));
    }
    std::fputc('\n', out);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
