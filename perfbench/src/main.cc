/**
 * @file
 * sfbench: the simulator's end-to-end and per-layer benchmark.
 *
 *   sfbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--reduced] [--perturb CHECK]
 *
 * Untraced (--trace 0): builds the workload's fixed 8x8 point through
 * the public API and times TiledSystem::run on three fresh instances,
 * each cut into segments of simulated cycles; run_s sums every
 * segment's fastest time. Reports the end-to-end metrics; set-up is
 * the process's first (cold) workload generation plus TiledSystem
 * construction. The point's length is fixed, so --seconds is accepted
 * for the runner's interface and otherwise unused.
 *
 * Traced (--trace 1): one untraced simulation (per-layer counts and
 * the overhead reference), one with the stack sampler and the PDES
 * window hooks, one with the latency profiler. Reports the per-layer
 * metrics and the tracing overhead.
 *
 * Both modes check the outputs (checks.hh) outside the timed region
 * and end stdout with one JSON line:
 *   {"correct": B, "attempted": N, "failed": F, "metrics": {...}}
 * attempted counts every simulation run, failed those that did not
 * complete. --reduced runs the reduced point in place of the timed
 * one (for the benchmark's own tests); --perturb breaks one check's
 * input on purpose.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <map>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checks.hh"
#include "point.hh"
#include "sim/profile.hh"
#include "stack_sampler.hh"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool reduced = false;
    Perturb perturb = Perturb::None;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "sfbench: %s\nusage: sfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--reduced] "
                 "[--perturb none|ops|l3-classes|dram-reads|threads]\n",
                 msg);
    std::exit(2);
}

bool
parseUnsigned(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string val;
        size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            val = arg.substr(eq + 1);
            arg.resize(eq);
        } else if (arg != "--reduced") {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            val = argv[++i];
        }
        uint64_t n = 0;
        if (arg == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed") {
            if (!parseUnsigned(val, n))
                usage("--seed takes a non-negative integer");
            o.seed = n;
        } else if (arg == "--seconds") {
            o.seconds = std::atof(val.c_str());
            if (!(o.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (arg == "--reduced") {
            o.reduced = true;
        } else if (arg == "--perturb") {
            if (!parsePerturb(val, o.perturb))
                usage(("unknown check '" + val + "'").c_str());
        } else {
            usage(("unknown option '" + arg + "'").c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return o;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * Operations attempted and failed. Every run attempts the same
 * operations: each timed simulation (the three passes of a traced run
 * count as one), the reduced oracle run and, for multi-worker points,
 * the worker-identity pair. An operation fails when its simulation does
 * not complete or, for the oracle run, when the simulated memory image
 * diverges from the reference executor's. Checks on the outputs of
 * operations that did not fail decide `correct`.
 */
struct Tally
{
    int attempted = 0;
    int failed = 0;

    void
    add(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** The simulated outcome every pass of one point must reproduce. */
void
expectSameSimulation(const RunResult &a, const RunResult &b,
                     const std::string &what, CheckLog &log)
{
    log.expect(a.sim.cycles == b.sim.cycles &&
                   a.sim.committedOps == b.sim.committedOps &&
                   a.sim.traffic.totalFlitHops() ==
                       b.sim.traffic.totalFlitHops(),
               what + " simulated a different outcome");
}

/** Per-layer counts read from the registry and results of one run. */
void
layerCounts(const Instance &inst, const RunResult &r,
            std::vector<Metric> &out)
{
    const sf::sys::SimResults &s = r.sim;
    StatMap st = readStats(*inst.system);
    int tiles = inst.system->config().numTiles();
    auto tileSum = [&](const char *group, const char *stat) {
        return sumOverTiles(st, tiles, group, stat);
    };
    double cycles = double(s.cycles);
    double events = double(s.eventsExecuted);

    sf::sys::TiledSystem &sys = *inst.system;
    double tombstones = double(sys.eventQueue().tombstones());
    for (int sh = 0; sh < sys.domains().shards(); ++sh)
        tombstones += double(sys.domains().shardQueue(sh).tombstones());

    double floated = tileSum("seCore", "floatedFetchesIssued");
    double l3req = 0.0;
    for (uint64_t c : s.l3RequestsByClass)
        l3req += double(c);

    out.push_back({"kernel.events", events, "count"});
    out.push_back({"kernel.events_per_cycle", ratio(events, cycles),
                   "events/cycle"});
    out.push_back({"kernel.ns_per_event", ratio(r.runSeconds * 1e9, events),
                   "ns"});
    out.push_back({"kernel.tombstones", tombstones, "count"});
    out.push_back({"core.ipc", s.ipc(), "ops/cycle"});
    out.push_back({"core.rob_full_stalls", tileSum("core", "robFullStalls"),
                   "count"});
    out.push_back({"core.sb_full_stalls", tileSum("core", "sbFullStalls"),
                   "count"});
    out.push_back({"se_core.float_share",
                   ratio(floated,
                         floated + tileSum("seCore", "fetchesIssued")),
                   "share"});
    out.push_back({"se_l2.nack_rate",
                   ratio(tileSum("seL2", "floatNacks"),
                         tileSum("seL2", "floats")),
                   "share"});
    out.push_back({"se_l3.line_requests", double(s.seL3LineRequests),
                   "count"});
    out.push_back({"se_l3.indirect_requests",
                   double(s.seL3IndirectRequests), "count"});
    out.push_back({"se_l3.migrations", double(s.migrations), "count"});
    out.push_back({"se_l3.credit_stalls", tileSum("seL3", "creditStalls"),
                   "count"});
    out.push_back({"se_l3.confluence_merge_rate",
                   ratio(double(s.confluenceMerges),
                         double(s.confluenceRequests)),
                   "share"});
    out.push_back({"priv.l1_hit_rate",
                   ratio(double(s.l1Hits), double(s.l1Hits + s.l1Misses)),
                   "share"});
    out.push_back({"priv.l2_hit_rate", s.l2HitRate, "share"});
    out.push_back({"priv.l2_unreused_evictions",
                   double(s.l2EvictionsUnreused), "count"});
    out.push_back({"l3.requests", l3req, "count"});
    out.push_back({"l3.hit_rate", s.l3HitRate, "share"});
    out.push_back({"dram.reads", double(s.dramReads), "count"});
    out.push_back({"prefetch.accuracy",
                   ratio(double(s.prefetchesUseful),
                         double(s.prefetchesIssued)),
                   "share"});
    out.push_back({"noc.flit_hops.control", double(s.traffic.flitHops[0]),
                   "flit-hops"});
    out.push_back({"noc.flit_hops.data", double(s.traffic.flitHops[1]),
                   "flit-hops"});
    out.push_back({"noc.flit_hops.stream_mgmt",
                   double(s.traffic.flitHops[2]), "flit-hops"});
    out.push_back({"noc.link_utilization", s.nocUtilization, "share"});
}

/** PDES window timing from the public TileDomains hooks. */
struct WindowClock
{
    WindowClock() = default;
    // The hooks hold this object's address.
    WindowClock(const WindowClock &) = delete;
    WindowClock &operator=(const WindowClock &) = delete;

    uint64_t windows = 0;
    double windowSeconds = 0.0; //!< window start -> barrier hook
    double mergeSeconds = 0.0;  //!< barrier hook -> next window start
    double lastStart = -1.0;
    double lastBarrier = -1.0;

    void
    attach(sf::sim::TileDomains &d)
    {
        d.setBoundaryHook([this](sf::Tick) {
            double t = nowSeconds();
            if (lastBarrier >= 0.0)
                mergeSeconds += t - lastBarrier;
            lastBarrier = -1.0;
            lastStart = t;
        });
        d.setBarrierHook([this]() {
            double t = nowSeconds();
            windowSeconds += t - lastStart;
            lastBarrier = t;
            ++windows;
        });
    }

    static void
    detach(sf::sim::TileDomains &d)
    {
        d.setBoundaryHook(nullptr);
        d.setBarrierHook(nullptr);
    }
};

/** Core top-down split and latency percentiles of a profiled run. */
void
profileMetrics(sf::prof::Profiler &prof, std::vector<Metric> &out)
{
    using sf::prof::Bucket;
    using sf::prof::Phase;
    std::array<double, sf::prof::numBuckets> td{};
    double total = 0.0;
    for (const auto &[name, acct] : prof.topDownAccounts()) {
        if (name.size() < 5 || name.compare(name.size() - 5, 5, ".core"))
            continue;
        for (size_t b = 0; b < sf::prof::numBuckets; ++b) {
            td[b] += double(acct.cycles(Bucket(b)));
            total += double(acct.cycles(Bucket(b)));
        }
    }
    const std::pair<const char *, Bucket> buckets[] = {
        {"topdown.retired", Bucket::Retired},
        {"topdown.stalled_data", Bucket::StalledData},
        {"topdown.stalled_sebuf", Bucket::StalledSebuf},
        {"topdown.stalled_credit", Bucket::StalledCredit},
        {"topdown.idle", Bucket::Idle},
    };
    for (const auto &[n, b] : buckets)
        out.push_back({n, ratio(td[size_t(b)], total), "share"});

    std::array<sf::prof::LatHist, sf::prof::numPhases> merged{};
    for (const auto &[key, hists] : prof.aggregates()) {
        for (size_t p = 0; p < sf::prof::numPhases; ++p)
            merged[p].merge(hists[p]);
    }
    auto hist = [&merged](Phase p) -> const sf::prof::LatHist & {
        return merged[size_t(p)];
    };
    out.push_back({"lat.total.p50", hist(Phase::Total).p50(), "cycles"});
    out.push_back({"lat.total.p95", hist(Phase::Total).p95(), "cycles"});
    out.push_back({"lat.remote.p95", hist(Phase::Remote).p95(), "cycles"});
    out.push_back({"lat.l3_queue.p95", hist(Phase::L3Queue).p95(),
                   "cycles"});
    out.push_back({"lat.mem.p95", hist(Phase::Mem).p95(), "cycles"});
    out.push_back({"lat.noc_req_queue.p95", hist(Phase::NocReqQueue).p95(),
                   "cycles"});
    out.push_back({"lat.noc_rsp_queue.p95", hist(Phase::NocRspQueue).p95(),
                   "cycles"});
    out.push_back({"lat.se_buffer.p95", hist(Phase::SEBuffer).p95(),
                   "cycles"});
}

/** The operations on reduced instances that close every run. */
void
reducedChecks(const WorkloadSpec &spec, Perturb perturb, Tally &tally,
              CheckLog &log)
{
    tally.add(checkOracle(spec.reduced, log));
    if (spec.reduced.threads > 1) {
        checkWorkerIdentity(spec.reduced, perturb, log);
        tally.add(true);
    }
}

void
printResult(const CheckLog &log, const Tally &tally,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("checks: %d run, %zu failed\n", log.run,
                log.failures.size());
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                log.passed() ? "true" : "false", tally.attempted,
                tally.failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

/** Timed simulations of the point in one untraced run. */
constexpr int kTimedRuns = 3;
/** Simulated cycles per timing segment of a timed simulation. */
constexpr sf::Tick kSegmentCycles = 1024;

/**
 * run_s of an untraced run: every segment of the simulation at its
 * fastest over the timed simulations, summed. Noise on a shared host
 * comes in stretches of seconds that slow one simulation and not the
 * next, so a stretch counts only where it slows the same simulated
 * cycles in every simulation.
 */
double
fastestSegments(const std::vector<RunResult> &runs)
{
    double sum = 0.0;
    for (size_t k = 0; k < runs[0].segments.size(); ++k) {
        double best = runs[0].segments[k];
        for (const RunResult &r : runs)
            best = std::min(best, r.segments[k]);
        sum += best;
    }
    return sum;
}

/** --trace 0: timed simulations and the end-to-end metrics. */
void
untracedMode(const WorkloadSpec &spec, const Point &p, const Options &o)
{
    Tally tally;
    CheckLog log;
    sf::sys::SystemConfig cfg = configFor(p);
    std::vector<RunResult> runs;
    double setup = 0.0;
    double rss = 0.0;
    for (int i = 0; i < kTimedRuns; ++i) {
        Instance inst = build(p, cfg);
        RunResult r = run(inst, kSegmentCycles);
        tally.add(!r.sim.hitCycleLimit);
        if (i == 0) {
            // The process's first (cold) set-up, as a user pays it.
            setup = inst.systemSeconds + inst.workloadSeconds;
            rss = peakRssMb();
            checkCounters(inst, r, drainOps(p), o.perturb, log);
        } else {
            expectSameSimulation(runs[0], r, "repeated timed simulation",
                                 log);
            log.expect(r.segmentTicks == runs[0].segmentTicks,
                       "repeated timed simulation cut its segments at "
                       "other ticks");
        }
        runs.push_back(std::move(r));
    }
    reducedChecks(spec, o.perturb, tally, log);

    bool aligned = true;
    std::printf("workload %s: untraced, runs", spec.name.c_str());
    for (const RunResult &r : runs) {
        aligned = aligned && r.segmentTicks == runs[0].segmentTicks;
        std::printf(" %.3f", r.runSeconds);
    }
    std::printf(" s wall, %zu segments\n", runs[0].segments.size());
    double runS = aligned ? fastestSegments(runs) : runs[0].runSeconds;

    const sf::sys::SimResults &s = runs[0].sim;
    std::vector<Metric> m = {
        {"setup_s", setup, "s"},
        {"run_s", runS, "s"},
        {"sim_cycles_per_s", ratio(double(s.cycles), runS), "cycles/s"},
        {"peak_rss_mb", rss, "MB"},
        {"sim_cycles", double(s.cycles), "cycles"},
        {"noc_flit_hops", double(s.traffic.totalFlitHops()), "flit-hops"},
    };
    printResult(log, tally, m);
}

/** --trace 1: untraced, sampled and profiled passes; per-layer metrics. */
void
tracedMode(const WorkloadSpec &spec, const Point &p, const Options &o)
{
    Tally tally;
    CheckLog log;
    std::vector<Metric> m;
    sf::sys::SystemConfig cfg = configFor(p);

    // Pass 1: untraced, as the timed mode runs it.
    Instance plain = build(p, cfg);
    RunResult plainRun = run(plain);
    m.push_back({"setup.workload_s", plain.workloadSeconds, "s"});
    m.push_back({"setup.system_s", plain.systemSeconds, "s"});
    layerCounts(plain, plainRun, m);
    checkCounters(plain, plainRun, drainOps(p), o.perturb, log);
    plain = Instance();

    // Pass 2: stack sampler + PDES window hooks.
    Instance sampled = build(p, cfg);
    WindowClock wc;
    wc.attach(sampled.system->domains());
    StackSampler sampler(1u << 17);
    sampler.start(1000);
    RunResult sampledRun = run(sampled);
    sampler.stop();
    WindowClock::detach(sampled.system->domains());
    expectSameSimulation(plainRun, sampledRun, "sampled pass", log);
    m.push_back({"pdes.windows", double(wc.windows), "count"});
    m.push_back({"pdes.ticks_per_window",
                 ratio(double(sampled.system->eventQueue().curTick()),
                       double(wc.windows)),
                 "cycles"});
    m.push_back({"pdes.window_s", wc.windowSeconds, "s"});
    m.push_back({"pdes.merge_s", wc.mergeSeconds, "s"});
    sampled.system.reset();

    std::map<std::string, uint64_t> perLayer;
    std::string err;
    bool attributed = sampler.attribute(perLayer, err);
    log.expect(attributed, "stack attribution: " + err);
    double samples = 0.0;
    for (const auto &[layer, n] : perLayer)
        samples += double(n);
    for (const std::string &layer : layerNames()) {
        m.push_back({"host." + layer + "_s",
                     ratio(double(perLayer[layer]), samples) *
                         sampledRun.cpuSeconds,
                     "s"});
    }

    // Pass 3: latency profiler (top-down split and percentiles).
    sf::sys::SystemConfig pcfg = cfg;
    pcfg.profile = true;
    Instance profiled = build(p, pcfg);
    RunResult profiledRun = run(profiled);
    tally.add(!plainRun.sim.hitCycleLimit && !sampledRun.sim.hitCycleLimit &&
              !profiledRun.sim.hitCycleLimit);
    expectSameSimulation(plainRun, profiledRun, "profiled pass", log);
    profileMetrics(*profiled.system->profiler(), m);
    profiled.system.reset();

    m.push_back({"trace.samples", samples, "count"});
    m.push_back({"trace.untraced_run_s", plainRun.runSeconds, "s"});
    m.push_back({"trace.sampled_run_s", sampledRun.runSeconds, "s"});
    m.push_back({"trace.sampler_overhead",
                 ratio(sampledRun.runSeconds, plainRun.runSeconds) - 1.0,
                 "share"});
    m.push_back({"trace.profiled_run_s", profiledRun.runSeconds, "s"});
    m.push_back({"trace.profiler_overhead",
                 ratio(profiledRun.runSeconds, plainRun.runSeconds) - 1.0,
                 "share"});

    reducedChecks(spec, o.perturb, tally, log);
    std::printf("workload %s: traced\n", spec.name.c_str());
    printResult(log, tally, m);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    std::vector<WorkloadSpec> table = workloadTable(o.seed);
    const WorkloadSpec *spec = findWorkload(table, o.workload);
    if (!spec)
        usage(("unknown workload '" + o.workload + "'").c_str());
    const Point &p = o.reduced ? spec->reduced : spec->timed;
    if (o.trace)
        tracedMode(*spec, p, o);
    else
        untracedMode(*spec, p, o);
    return 0;
}
