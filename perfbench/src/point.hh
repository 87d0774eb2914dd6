/**
 * @file
 * The benchmark's fixed simulation points and the plumbing to build,
 * run and read one of them through the simulator's public API.
 */

#ifndef PERFBENCH_POINT_HH
#define PERFBENCH_POINT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "system/tiled_system.hh"
#include "workload/workload.hh"

namespace perfbench {

/** One simulated configuration: machine, mesh, kernel and dataset. */
struct Point
{
    std::string kernel;
    sf::sys::Machine machine = sf::sys::Machine::SF;
    int mesh = 8;       //!< mesh side (mesh x mesh tiles)
    double scale = 0.01;
    int threads = 1;    //!< PDES worker threads
    uint64_t seed = 0;  //!< workload dataset seed
};

/** A benchmark workload: its timed point and its reduced twin. */
struct WorkloadSpec
{
    std::string name;
    Point timed;
    /**
     * Same machine and kernel on a 2x2 mesh, small enough to check in
     * about a second. Its dataset seed is fixed, so its outcome does
     * not vary from run to run.
     */
    Point reduced;
};

/** Every workload, with @p seed folded into every point. */
std::vector<WorkloadSpec> workloadTable(uint64_t seed);
const WorkloadSpec *findWorkload(const std::vector<WorkloadSpec> &table,
                                 const std::string &name);

/** Monotonic host clock in seconds (CLOCK_MONOTONIC). */
double nowSeconds();

/** Configuration the simulator would build for @p p. */
sf::sys::SystemConfig configFor(const Point &p);
/** Workload parameters the simulator would use for @p p. */
sf::workload::WorkloadParams paramsFor(const Point &p);

/** A constructed system with its workload, ready to run. */
struct Instance
{
    std::unique_ptr<sf::sys::TiledSystem> system;
    std::unique_ptr<sf::workload::Workload> workload;
    std::vector<std::shared_ptr<sf::isa::OpSource>> threads;
    double systemSeconds = 0.0;   //!< TiledSystem construction
    double workloadSeconds = 0.0; //!< makeWorkload + init + op sources
};

/** Build @p cfg and the workload of @p p into it (the set-up phase). */
Instance build(const Point &p, const sf::sys::SystemConfig &cfg);

/** Outcome of one TiledSystem::run. */
struct RunResult
{
    sf::sys::SimResults sim;
    double runSeconds = 0.0;  //!< wall time of TiledSystem::run
    double cpuSeconds = 0.0;  //!< process CPU time over the same span
    /**
     * With segmentCycles > 0: the run's wall time cut at the first
     * window boundary at or past each multiple of segmentCycles
     * simulated cycles. segments sums to runSeconds; segmentTicks
     * holds the tick of each cut, so runs of one point line up.
     */
    std::vector<double> segments;
    std::vector<sf::Tick> segmentTicks;
};

RunResult run(Instance &inst, sf::Tick segmentCycles = 0);

/**
 * Flat name -> value view of the stats registry: "tileN.group.stat"
 * for scalars and formulas. Read after the run, outside any timed
 * region.
 */
using StatMap = std::map<std::string, double>;
StatMap readStats(const sf::sys::TiledSystem &system);

/** Sum of "tileN.<group>.<stat>" over all tiles. */
double sumOverTiles(const StatMap &stats, int tiles,
                    const std::string &group, const std::string &stat);

} // namespace perfbench

#endif // PERFBENCH_POINT_HH
