/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints its result
 * as one JSON object on the last line of standard output.
 *
 * Usage: perfbench_driver --workload sweep|fleet|explore|bughunt
 *            [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
 *
 * With --trace 1, every other repetition records spans around the
 * layer calls; they are written to DIR/spans-<workload>-<seed>.json
 * when the run ends. perfbench/run.py builds this binary, checks pinned
 * digests and prints the benchmark's result line.
 */

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "campaign/campaign_json.hh"
#include "sim/build_info.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(CPU_COUNT(&set));
    return 0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Peak resident set of this process and its reaped children, in MB. */
double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return double(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "%s\nusage: perfbench_driver --workload "
                 "sweep|fleet|explore|bughunt [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    cfg.outDir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            cfg.workload = v;
        } else if (flag == "--seed") {
            cfg.seed = std::strtoull(v, &end, 10);
            if (*end || !*v)
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            cfg.seconds = std::strtod(v, &end);
            if (*end || cfg.seconds <= 0.0)
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("--trace takes 0 or 1");
            cfg.trace = *v == '1';
        } else if (flag == "--out-dir") {
            cfg.outDir = v;
        } else {
            usage(("unknown argument " + flag).c_str());
        }
    }

    const unsigned executors = workloadExecutors(cfg.workload);
    if (executors == 0)
        usage(("unknown workload '" + cfg.workload + "'").c_str());
    const unsigned nproc = onlineCpus();
    if (executors > nproc) {
        std::fprintf(stderr,
                     "refusing to run %s: %u executor threads and worker "
                     "processes on %u CPUs would oversubscribe the host\n",
                     cfg.workload.c_str(), executors, nproc);
        return 3;
    }

    SpanRecorder spans(cfg.trace);
    RunResult res = runWorkload(cfg, spans);

    std::string span_file;
    if (cfg.trace) {
        span_file = cfg.outDir + "/spans-" + cfg.workload + "-" +
                    std::to_string(cfg.seed) + ".json";
        std::ofstream out(span_file);
        out << spans.chromeJson() << "\n";
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", span_file.c_str());
            return 1;
        }
    }
    res.endToEnd.add("peak_rss_mb", peakRssMb(), "MB");
    res.perLayer.addRatio("ops.failed_ratio", double(res.failed),
                          double(res.attempted), "ops.attempted", "count");

    bool correct = true;
    drf::JsonWriter w;
    w.beginObject();
    w.key("workload").value(cfg.workload);
    w.key("seed").value(cfg.seed);
    w.key("seconds").raw(jsonNumber(cfg.seconds));
    w.key("trace").value(cfg.trace);
    w.key("provenance").beginObject();
    w.key("nproc").value(nproc);
    w.key("cpu_model").value(cpuModel());
    w.key("git_sha").value(drf::buildGitSha());
    w.key("build_type").value(drf::buildType());
    w.key("seed").value(cfg.seed);
    w.key("driver_threads").value(res.threads);
    w.key("driver_processes").value(1 + res.processes);
    w.endObject();
    w.key("repetitions").value(std::uint64_t(res.repSeconds.size()));
    w.key("repetition_seconds").beginArray();
    for (double d : res.repSeconds)
        w.raw(jsonNumber(d));
    w.endArray();
    w.key("checks").beginArray();
    for (const Check &c : res.checks) {
        correct = correct && c.ok;
        w.beginObject();
        w.key("name").value(c.name);
        w.key("ok").value(c.ok);
        w.key("detail").value(c.detail);
        w.endObject();
    }
    w.endArray();
    w.key("digests").beginObject();
    for (const auto &[name, digest] : res.digests)
        w.key(name).value(digest);
    w.endObject();
    w.key("attempted").value(res.attempted);
    w.key("failed").value(res.failed);
    w.key("end_to_end").raw(res.endToEnd.json());
    w.key("per_layer").raw(res.perLayer.json());
    if (!span_file.empty())
        w.key("span_file").value(span_file);
    w.key("correct").value(correct);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return correct ? 0 : 1;
}
