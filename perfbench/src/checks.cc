#include "checks.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "mem/phys_mem.hh"
#include "verify/oracle.hh"

namespace perfbench {

bool
parsePerturb(const std::string &s, Perturb &out)
{
    static const std::pair<const char *, Perturb> names[] = {
        {"none", Perturb::None},
        {"ops", Perturb::Ops},
        {"l3-classes", Perturb::L3Classes},
        {"dram-reads", Perturb::DramReads},
        {"threads", Perturb::Threads},
    };
    for (const auto &[n, v] : names) {
        if (s == n) {
            out = v;
            return true;
        }
    }
    return false;
}

void
CheckLog::expect(bool ok, const std::string &what)
{
    ++run;
    if (!ok) {
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
        failures.push_back(what);
    }
}

uint64_t
drainOps(const Point &p)
{
    sf::mem::PhysMem phys;
    sf::mem::AddressSpace as(0, phys);
    auto wl = sf::workload::makeWorkload(p.kernel, paramsFor(p));
    wl->init(as);
    uint64_t ops = 0;
    std::vector<sf::isa::Op> chunk;
    for (auto &src : wl->makeAllThreads()) {
        for (;;) {
            chunk.clear();
            size_t n = src->refill(chunk);
            if (n == 0)
                break;
            ops += n;
        }
    }
    return ops;
}

static std::string
mismatch(const std::string &what, double a, double b)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s: %.0f != %.0f", what.c_str(), a,
                  b);
    return buf;
}

void
checkCounters(const Instance &inst, const RunResult &r, uint64_t drained,
              Perturb perturb, CheckLog &log)
{
    if (perturb == Perturb::Ops)
        --drained;
    log.expect(r.sim.committedOps == drained,
               mismatch("committed ops vs drained op sources",
                        double(r.sim.committedOps), double(drained)));
    log.expect(!r.sim.hitCycleLimit, "run hit the cycle limit");

    const sf::sys::TiledSystem &sys = *inst.system;
    StatMap st = readStats(sys);
    int tiles = sys.config().numTiles();
    static const char *classes[] = {"reqCoreNormal", "reqCoreStream",
                                    "reqFloatAffine", "reqFloatIndirect",
                                    "reqFloatConfluence"};
    double memReads = 0.0;
    for (int t = 0; t < tiles; ++t) {
        std::string g = "tile" + std::to_string(t) + ".l3.";
        double req = 0.0;
        for (const char *c : classes)
            req += st[g + c];
        double hits = st[g + "hits"];
        double reads = st[g + "memReads"];
        if (t == 0 && perturb == Perturb::L3Classes)
            hits += 1;
        if (t == 0 && perturb == Perturb::DramReads)
            reads += 1;
        log.expect(req == hits + st[g + "misses"],
                   mismatch("tile" + std::to_string(t) +
                                " L3 requests by class vs hits + misses",
                            req, hits + st[g + "misses"]));
        memReads += reads;
    }
    log.expect(double(r.sim.dramReads) == memReads,
               mismatch("DRAM channel reads vs L3 memory reads",
                        double(r.sim.dramReads), memReads));
}

/** Private L2 of the oracle's reduced instance (the timed: 256 KiB). */
constexpr uint64_t oracleL2Bytes = 16 * 1024;

bool
checkOracle(const Point &reduced, CheckLog &log)
{
    Point serial = reduced;
    serial.threads = 1; // the verify data plane runs on one worker
    sf::sys::SystemConfig cfg = configFor(serial);
    cfg.verify = true;
    // At the reduced size every thread's data fits its private L2, so
    // no dirty line would ever be written back; a small L2 makes the
    // writeback path carry data the oracle then checks.
    cfg.priv.l2Size = oracleL2Bytes;
    if (const char *bug = std::getenv("SF_VERIFY_BUG"))
        cfg.verifyBug = bug;
    Instance inst = build(serial, cfg);
    sf::sys::SimResults r = inst.system->run(inst.threads);
    log.expect(r.l2Evictions > 0, "reduced verify run evicted nothing");
    if (r.hitCycleLimit) {
        std::fprintf(stderr, "reduced verify run hit the cycle limit\n");
        return false;
    }

    // Replay the same program functionally on fresh op sources.
    auto ref = inst.workload->makeAllThreads();
    std::vector<sf::isa::OpSource *> srcs;
    for (auto &t : ref)
        srcs.push_back(t.get());
    sf::mem::AddressSpace &as = inst.system->addressSpace();
    sf::verify::RefResult golden = sf::verify::runReference(as, srcs);
    auto div = sf::verify::compareWithGolden(
        *inst.system->verifyPlane(), golden, as,
        inst.workload->verifyRegions());
    if (div) {
        std::fprintf(stderr, "reduced run vs reference executor: %s\n",
                     div->describe().c_str());
        return false;
    }
    return true;
}

static std::string
statsJson(const Point &p, uint32_t interleave)
{
    sf::sys::SystemConfig cfg = configFor(p);
    if (interleave)
        cfg.nucaInterleave = interleave;
    Instance inst = build(p, cfg);
    sf::sys::SimResults r = inst.system->run(inst.threads);
    std::ostringstream os;
    inst.system->dumpStatsJson(os, r);
    return os.str();
}

void
checkWorkerIdentity(const Point &reduced, Perturb perturb, CheckLog &log)
{
    Point serial = reduced;
    serial.threads = 1;
    std::string one = statsJson(serial, 0);
    uint32_t interleave =
        perturb == Perturb::Threads
            ? configFor(reduced).nucaInterleave * 2
            : 0;
    std::string many = statsJson(reduced, interleave);
    log.expect(one == many,
               "reduced stats JSON differs between 1 and " +
                   std::to_string(reduced.threads) + " workers");
}

} // namespace perfbench
