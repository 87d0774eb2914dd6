#include "stack_sampler.hh"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <execinfo.h>
#include <link.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

/** The sampler the signal handler writes into (one at a time). */
std::atomic<StackSampler *> activeSampler{nullptr};
/** Signal handlers currently executing, on any thread. */
std::atomic<int> handlersRunning{0};

/**
 * Scope rules, first match wins. A rule matches a frame's scope
 * (namespace::class::function, template arguments removed) when the
 * scope starts with the prefix at a name boundary. An empty layer
 * makes the frame transparent: the next outer frame decides.
 */
struct ScopeRule
{
    const char *prefix;
    const char *layer;
};

const ScopeRule scopeRules[] = {
    {"sf::cpu::", "core"},
    {"sf::stream::", "se_core"},
    {"sf::flt::SEL2", "se_l2"},
    {"sf::flt::SEL3", "se_l3"},
    // Stream control messages are plain data; their sender decides.
    {"sf::flt::", ""},
    {"sf::mem::PrivCache", "priv_cache"},
    {"sf::mem::L3Bank", "l3_bank"},
    // Tag arrays, replacement, requests and messages serve both cache
    // levels; the cache that calls them decides.
    {"sf::mem::CacheArray", ""},
    {"sf::mem::CacheLine", ""},
    {"sf::mem::Replacement", ""},
    {"sf::mem::LruReplacement", ""},
    {"sf::mem::BrripReplacement", ""},
    {"sf::mem::MemMsg", ""},
    {"sf::mem::makeMemMsg", ""},
    {"sf::mem::Access", ""},
    {"sf::mem::", "mem_other"},
    {"sf::noc::Message", ""},
    {"sf::noc::", "mesh"},
    {"sf::prefetch::", "prefetch"},
    {"sf::EventQueue", "kernel"},
    {"sf::RecurringEvent", "kernel"},
    {"sf::sim::TileDomains", "pdes"},
    {"sf::workload::", "workload"},
    {"sf::isa::", "workload"},
    {"sf::sys::", "system"},
    // Inline helpers every component calls.
    {"sf::SimObject", ""},
    {"sf::stats::", ""},
    {"sf::debug::", ""},
    {"sf::trace::", ""},
    {"sf::Rng", ""},
    // Any other simulator code: watchdog, checker, verify plane.
    {"sf::", "unattributed"},
};

/** Scope of a demangled function name: "ns::Class::fn". */
std::string
scopeOf(std::string name)
{
    size_t p;
    while ((p = name.find("(anonymous namespace)")) != std::string::npos)
        name.replace(p, 21, "anon");
    if ((p = name.find(" [clone")) != std::string::npos)
        name.resize(p);
    std::string out;
    int depth = 0;
    for (size_t i = 0; i < name.size(); ++i) {
        char c = name[i];
        if (depth == 0 && name.compare(i, 8, "operator") == 0 &&
            (i == 0 || name[i - 1] == ':' || name[i - 1] == ' '))
            break;
        if (c == '<') {
            ++depth;
        } else if (c == '>') {
            depth = std::max(0, depth - 1);
        } else if (depth == 0) {
            if (c == '(')
                break;
            if (c == ' ')
                out.clear(); // a return type precedes the name
            else
                out += c;
        }
    }
    while (out.size() >= 2 && out.compare(out.size() - 2, 2, "::") == 0)
        out.resize(out.size() - 2);
    return out;
}

/**
 * Layer of one symbolized function name (demangled, as addr2line
 * prints it): a name from layerNames(), or "" when the frame belongs
 * to no layer and the caller's frame decides.
 */
std::string
layerOfFunction(const std::string &demangled)
{
    std::string scope = scopeOf(demangled);
    for (const ScopeRule &r : scopeRules) {
        size_t n = std::strlen(r.prefix);
        if (scope.compare(0, n, r.prefix) != 0)
            continue;
        bool boundary = r.prefix[n - 1] == ':' || scope.size() == n ||
                        scope[n] == ':';
        if (boundary)
            return r.layer;
    }
    return "";
}

/** Address range of one loaded segment of the main program. */
struct Range
{
    uintptr_t lo, hi;
};

struct ExeMap
{
    uintptr_t bias = 0;
    std::vector<Range> ranges;
};

int
collectExe(dl_phdr_info *info, size_t, void *data)
{
    auto *m = static_cast<ExeMap *>(data);
    // The main program is reported first, with an empty name.
    m->bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type == PT_LOAD) {
            uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
            m->ranges.push_back({lo, lo + ph.p_memsz});
        }
    }
    return 1;
}

/**
 * Inline chain (innermost first) of function names for each address
 * of the main program, via `addr2line -a -f -i -C`.
 */
bool
symbolize(const std::vector<uintptr_t> &addrs,
          std::unordered_map<uintptr_t, std::vector<std::string>> &out,
          std::string &error)
{
    char exe[PATH_MAX];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0) {
        error = "cannot resolve /proc/self/exe";
        return false;
    }
    exe[n] = '\0';
    constexpr size_t chunk = 3000;
    for (size_t i = 0; i < addrs.size(); i += chunk) {
        std::string cmd = "addr2line -a -f -i -C -e '";
        cmd += exe;
        cmd += "'";
        size_t end = std::min(addrs.size(), i + chunk);
        char buf[32];
        for (size_t k = i; k < end; ++k) {
            std::snprintf(buf, sizeof(buf), " 0x%lx",
                          static_cast<unsigned long>(addrs[k]));
            cmd += buf;
        }
        FILE *f = popen(cmd.c_str(), "r");
        if (!f) {
            error = "cannot run addr2line";
            return false;
        }
        std::vector<std::string> *cur = nullptr;
        bool expectFunction = true;
        std::string line;
        char lbuf[8192];
        while (std::fgets(lbuf, sizeof(lbuf), f)) {
            line = lbuf;
            while (!line.empty() &&
                   (line.back() == '\n' || line.back() == '\r'))
                line.pop_back();
            if (line.rfind("0x", 0) == 0) {
                uintptr_t a = std::strtoull(line.c_str(), nullptr, 16);
                cur = &out[a];
                expectFunction = true;
            } else if (cur) {
                if (expectFunction)
                    cur->push_back(line);
                expectFunction = !expectFunction;
            }
        }
        int rc = pclose(f);
        if (rc != 0) {
            error = "addr2line exited with status " + std::to_string(rc);
            return false;
        }
    }
    return true;
}

} // namespace

const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> names = {
        "core",     "se_core",  "se_l2",   "se_l3",
        "priv_cache", "l3_bank", "mem_other", "mesh",
        "prefetch", "kernel",   "pdes",    "workload",
        "system",   "unattributed",
    };
    return names;
}

StackSampler::StackSampler(size_t maxSamples)
    : _cap(maxSamples),
      // Left uninitialized: only the pages samples touch get mapped.
      _frames(new uintptr_t[maxSamples * maxDepth]),
      _depth(new uint8_t[maxSamples]())
{
}

StackSampler::~StackSampler()
{
    if (_running)
        stop();
}

void
StackSampler::onSignal(int, void *, void *uctx)
{
    handlersRunning.fetch_add(1, std::memory_order_acq_rel);
    StackSampler *s = activeSampler.load(std::memory_order_acquire);
    if (!s) {
        handlersRunning.fetch_sub(1, std::memory_order_release);
        return;
    }
    int savedErrno = errno;
    size_t i = s->_next.fetch_add(1, std::memory_order_relaxed);
    if (i < s->_cap) {
        void *buf[maxDepth + 8];
        int n = backtrace(buf, maxDepth + 8);
        auto *uc = static_cast<ucontext_t *>(uctx);
        auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
        uintptr_t *out = &s->_frames[i * maxDepth];
        int d = 0;
        out[d++] = pc;
        // Frames above the interrupted pc are the interrupted code's
        // callers; the ones below it are this handler and the kernel's
        // signal trampoline.
        int first = n;
        for (int k = 0; k < n; ++k) {
            if (reinterpret_cast<uintptr_t>(buf[k]) == pc) {
                first = k + 1;
                break;
            }
        }
        for (int k = first; k < n && d < maxDepth; ++k)
            out[d++] = reinterpret_cast<uintptr_t>(buf[k]);
        s->_depth[i] = static_cast<uint8_t>(d);
    }
    errno = savedErrno;
    handlersRunning.fetch_sub(1, std::memory_order_release);
}

void
StackSampler::start(int hz)
{
    // backtrace() loads the unwinder on first use; do that here, not
    // inside the signal handler.
    void *warm[4];
    backtrace(warm, 4);

    activeSampler.store(this, std::memory_order_release);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = reinterpret_cast<void (*)(int, siginfo_t *, void *)>(
        &StackSampler::onSignal);
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);

    itimerval tv;
    tv.it_interval.tv_sec = 0;
    tv.it_interval.tv_usec = 1000000 / hz;
    tv.it_value = tv.it_interval;
    setitimer(ITIMER_PROF, &tv, nullptr);
    _running = true;
}

void
StackSampler::stop()
{
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    // Ignoring the signal also discards one still pending; the
    // default action would end the process.
    signal(SIGPROF, SIG_IGN);
    // A signal delivered just before that still runs its handler; let
    // every such handler finish its sample before the samples are read.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    while (handlersRunning.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
    activeSampler.store(nullptr, std::memory_order_release);
    _running = false;
}

size_t
StackSampler::samples() const
{
    return std::min(_next.load(), _cap);
}

bool
StackSampler::attribute(std::map<std::string, uint64_t> &perLayer,
                        std::string &error) const
{
    for (const std::string &l : layerNames())
        perLayer[l] = 0;
    size_t count = samples();

    ExeMap exe;
    dl_iterate_phdr(collectExe, &exe);
    auto inExe = [&exe](uintptr_t a) {
        for (const Range &r : exe.ranges) {
            if (a >= r.lo && a < r.hi)
                return true;
        }
        return false;
    };
    // Callers' frames hold return addresses; look up the call
    // instruction (address - 1) so inline context is the call site's.
    auto lookupAddr = [](uintptr_t a, int frame) {
        return frame == 0 ? a : a - 1;
    };

    std::vector<uintptr_t> unique;
    {
        std::unordered_map<uintptr_t, bool> seen;
        for (size_t i = 0; i < count; ++i) {
            const uintptr_t *f = &_frames[i * maxDepth];
            for (int k = 0; k < _depth[i]; ++k) {
                uintptr_t a = lookupAddr(f[k], k);
                if (inExe(a) && !seen[a]) {
                    seen[a] = true;
                    unique.push_back(a - exe.bias);
                }
            }
        }
    }
    std::unordered_map<uintptr_t, std::vector<std::string>> chains;
    if (!symbolize(unique, chains, error))
        return false;

    std::unordered_map<uintptr_t, std::string> layerAt;
    for (const auto &[addr, chain] : chains) {
        std::string layer;
        for (const std::string &fn : chain) {
            layer = layerOfFunction(fn);
            if (!layer.empty())
                break;
        }
        layerAt[addr + exe.bias] = layer;
    }

    for (size_t i = 0; i < count; ++i) {
        const uintptr_t *f = &_frames[i * maxDepth];
        std::string layer = "unattributed";
        for (int k = 0; k < _depth[i]; ++k) {
            auto it = layerAt.find(lookupAddr(f[k], k));
            if (it != layerAt.end() && !it->second.empty()) {
                layer = it->second;
                break;
            }
        }
        ++perLayer[layer];
    }
    return true;
}

} // namespace perfbench
