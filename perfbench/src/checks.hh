/**
 * @file
 * Output checks. None compares against a stored copy of earlier
 * output: each one recomputes a total independently of the timed
 * simulation (a fresh op-source drain, a conservation identity
 * between two components, the functional reference executor, a
 * second worker count) and compares.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "point.hh"

namespace perfbench {

/**
 * Deliberate perturbation of one check's input, used by the
 * benchmark's own tests to show that each check can fail.
 */
enum class Perturb
{
    None,
    Ops,        //!< drained op count loses one op
    L3Classes,  //!< one L3 bank counts an extra hit
    DramReads,  //!< one L3 bank counts an extra memory read
    Threads,    //!< reduced 4-worker run uses another NUCA interleave
};

bool parsePerturb(const std::string &s, Perturb &out);

/** Failed checks, one line each; empty when all passed. */
struct CheckLog
{
    std::vector<std::string> failures;
    int run = 0;

    void expect(bool ok, const std::string &what);
    bool passed() const { return failures.empty(); }
};

/**
 * Ops produced by draining fresh op sources of @p p through
 * isa::OpSource::refill, without the simulator.
 */
uint64_t drainOps(const Point &p);

/**
 * Counter identities on a finished timed run: committed ops equal
 * @p drained, each L3 bank's per-class requests equal its hits plus
 * misses, and DRAM channel reads equal the L3 banks' memory reads.
 */
void checkCounters(const Instance &inst, const RunResult &r,
                   uint64_t drained, Perturb perturb, CheckLog &log);

/**
 * Run @p reduced with the verify data plane and compare its final
 * memory image and stream trip counts with the functional reference
 * executor's. False when the run did not complete or diverged. The
 * SF_VERIFY_BUG environment variable injects a protocol bug into the
 * run, as it does for the simulator's own drivers.
 */
bool checkOracle(const Point &reduced, CheckLog &log);

/**
 * Run @p reduced at one worker and at its own worker count and
 * require byte-identical stats JSON.
 */
void checkWorkerIdentity(const Point &reduced, Perturb perturb,
                         CheckLog &log);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
