/**
 * @file
 * Host-time split by simulator layer, measured from outside the
 * simulator: a SIGPROF interval timer samples the process's own call
 * stacks with backtrace(); after the run the sampled addresses are
 * symbolized (inline frames included, via addr2line) and each sample
 * goes to the innermost frame that belongs to a layer.
 */

#ifndef PERFBENCH_STACK_SAMPLER_HH
#define PERFBENCH_STACK_SAMPLER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Layer names, in report order; the last one is "unattributed". */
const std::vector<std::string> &layerNames();

class StackSampler
{
  public:
    static constexpr int maxDepth = 64;

    explicit StackSampler(size_t maxSamples);
    ~StackSampler();
    // The signal handler holds this object's address.
    StackSampler(const StackSampler &) = delete;
    StackSampler &operator=(const StackSampler &) = delete;

    /** Install the SIGPROF handler and arm a @p hz CPU-time timer. */
    void start(int hz);
    /** Disarm the timer and restore the previous handler. */
    void stop();

    /** Samples recorded (excluding those dropped when full). */
    size_t samples() const;

    /**
     * Symbolize every recorded stack and count samples per layer
     * (keys from layerNames()). False when symbolization failed.
     */
    bool attribute(std::map<std::string, uint64_t> &perLayer,
                   std::string &error) const;

  private:
    static void onSignal(int sig, void *info, void *uctx);

    size_t _cap;
    std::unique_ptr<uintptr_t[]> _frames; //!< _cap x maxDepth
    std::unique_ptr<uint8_t[]> _depth;    //!< frames per sample
    std::atomic<size_t> _next{0};
    bool _running = false;
};

} // namespace perfbench

#endif // PERFBENCH_STACK_SAMPLER_HH
