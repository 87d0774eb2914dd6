#include "point.hh"

#include <time.h>

#include "sim/stat_registry.hh"

namespace perfbench {

using sf::sys::Machine;

std::vector<WorkloadSpec>
workloadTable(uint64_t seed)
{
    // conv3d at scale 0.01 sits on its size floors (128x128 planes,
    // one output channel per thread), so the reduced twin keeps the
    // per-thread work and shrinks the mesh instead.
    Point conv{"conv3d", Machine::SF, 8, 0.01, 1, seed};
    Point conv2 = conv;
    conv2.mesh = 2;
    conv2.seed = 0;

    Point bingo = conv;
    bingo.machine = Machine::BingoPf;
    Point bingo2 = bingo;
    bingo2.mesh = 2;

    Point bfs{"bfs", Machine::SF, 8, 0.35, 1, seed};
    Point bfs2 = bfs;
    bfs2.mesh = 2;
    bfs2.scale = 0.01;
    bfs2.seed = 0;

    std::vector<WorkloadSpec> table = {
        {"sf_conv3d", conv, conv2},
        {"bingo_conv3d", bingo, bingo2},
        {"sf_bfs", bfs, bfs2},
    };
    // The timed workloads: each serial point again on 4 PDES workers,
    // which simulate exactly what one worker does. Serial host time
    // swings too much on a shared host to hold a bound (README.md,
    // "Steadiness"); the serial points stay for the checks' tests and
    // for comparison.
    for (size_t i = 0, n = table.size(); i < n; ++i) {
        WorkloadSpec w = table[i];
        w.name += "_4t";
        w.timed.threads = 4;
        w.reduced.threads = 4;
        table.push_back(w);
    }
    return table;
}

const WorkloadSpec *
findWorkload(const std::vector<WorkloadSpec> &table, const std::string &name)
{
    for (const WorkloadSpec &w : table) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

double
nowSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

static double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

sf::sys::SystemConfig
configFor(const Point &p)
{
    sf::sys::SystemConfig cfg = sf::sys::SystemConfig::make(
        p.machine, sf::cpu::CoreConfig::ooo8(), p.mesh, p.mesh);
    cfg.threads = p.threads;
    cfg.workloadTag = p.kernel;
    return cfg;
}

sf::workload::WorkloadParams
paramsFor(const Point &p)
{
    sf::workload::WorkloadParams wp;
    wp.numThreads = p.mesh * p.mesh;
    wp.scale = p.scale;
    wp.useStreams = sf::sys::machineUsesStreams(p.machine);
    // Seed 0 is the simulator's default dataset seed.
    wp.seed = sf::workload::WorkloadParams{}.seed + p.seed;
    return wp;
}

Instance
build(const Point &p, const sf::sys::SystemConfig &cfg)
{
    Instance inst;
    double t0 = nowSeconds();
    inst.system = std::make_unique<sf::sys::TiledSystem>(cfg);
    double t1 = nowSeconds();
    inst.workload = sf::workload::makeWorkload(p.kernel, paramsFor(p));
    inst.workload->init(inst.system->addressSpace());
    inst.threads = inst.workload->makeAllThreads();
    double t2 = nowSeconds();
    inst.systemSeconds = t1 - t0;
    inst.workloadSeconds = t2 - t1;
    return inst;
}

RunResult
run(Instance &inst, sf::Tick segmentCycles)
{
    RunResult r;
    std::vector<double> cuts;
    if (segmentCycles > 0) {
        // The hook runs on the main thread at the top of every window
        // and costs a compare per window; TiledSystem::run clears it.
        sf::Tick next = segmentCycles;
        cuts.reserve(4096);
        r.segmentTicks.reserve(4096);
        inst.system->domains().setBoundaryHook([&](sf::Tick now) {
            if (now < next)
                return;
            cuts.push_back(nowSeconds());
            r.segmentTicks.push_back(now);
            while (next <= now)
                next += segmentCycles;
        });
    }
    double c0 = cpuSeconds();
    double t0 = nowSeconds();
    r.sim = inst.system->run(inst.threads);
    double t1 = nowSeconds();
    r.runSeconds = t1 - t0;
    r.cpuSeconds = cpuSeconds() - c0;
    if (segmentCycles > 0) {
        cuts.push_back(t1);
        double last = t0;
        for (double c : cuts) {
            r.segments.push_back(c - last);
            last = c;
        }
    }
    return r;
}

StatMap
readStats(const sf::sys::TiledSystem &system)
{
    sf::stats::StatRegistry reg;
    system.buildStatRegistry(reg);
    StatMap out;
    reg.forEachGroup([&out](const sf::stats::StatGroup &g) {
        for (const auto &[n, s] : g.scalars())
            out[g.name() + "." + n] = double(s->value());
        for (const auto &[n, f] : g.formulas())
            out[g.name() + "." + n] = f();
    });
    return out;
}

double
sumOverTiles(const StatMap &stats, int tiles, const std::string &group,
             const std::string &stat)
{
    double sum = 0.0;
    for (int t = 0; t < tiles; ++t) {
        auto it = stats.find("tile" + std::to_string(t) + "." + group +
                             "." + stat);
        if (it != stats.end())
            sum += it->second;
    }
    return sum;
}

} // namespace perfbench
