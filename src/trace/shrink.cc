#include "trace/shrink.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <exception>

#include "campaign/thread_pool.hh"

namespace drf
{

namespace
{

/**
 * One shrink probe: does @p candidate reproduce the original failure —
 * and only the original failure? See the header's soundness note.
 * Adds the number of replays it ran (one or two) to @p replays.
 */
bool
candidateFails(const ReproTrace &trace, const EpisodeSchedule &candidate,
               std::size_t &replays)
{
    ++replays;
    TesterResult r = replayGpuRun(trace, candidate, /*arm_fault=*/true);
    if (r.passed || r.failureClass != trace.result.failureClass)
        return false;
    if (trace.system.fault != FaultKind::None) {
        ++replays;
        TesterResult clean =
            replayGpuRun(trace, candidate, /*arm_fault=*/false);
        if (!clean.passed)
            return false;
    }
    return true;
}

/**
 * Probes a list of candidates with serial ddmin's accounting but
 * concurrent replays. Serial ddmin probes the candidates of one step
 * in order and commits the first that fails. The candidates are
 * independent deterministic replays, so the prober replays them all at
 * once on the pool and then walks the results in serial order, charging
 * exactly the probes the serial walk would have made. The chosen
 * candidate and every count in ShrinkStats but `replays` and `seconds`
 * are therefore those of the serial search, at any thread count.
 */
class Prober
{
  public:
    Prober(const ReproTrace &trace, const ShrinkOptions &opts,
           ShrinkStats &stats)
        : _trace(trace), _opts(opts), _stats(stats),
          _pool(ThreadPool::defaultThreads())
    {
    }

    /**
     * Index of the first of @p count candidates that fails, or @p count
     * when none does before the probe budget runs out. @p make(i)
     * returns candidate i as indexes into the trace's schedule; it is
     * called from pool threads. @p best is the current best size,
     * reported to the progress callback.
     */
    template <typename Make>
    std::size_t
    firstFailing(std::size_t count, std::size_t best, const Make &make)
    {
        // Candidates past the remaining budget are never probed.
        const std::size_t runnable =
            std::min(count, _opts.maxProbes -
                                std::min(_stats.probes, _opts.maxProbes));
        std::vector<std::uint8_t> fails(runnable, 0);
        // An exception is rethrown where the serial walk reaches it.
        std::vector<std::exception_ptr> errors(runnable);
        std::atomic<std::size_t> lowest{runnable};
        std::atomic<std::size_t> replays{0};
        for (std::size_t i = 0; i < runnable; ++i) {
            _pool.submit([&, i] {
                // A lower-index failure already decides this step.
                if (i > lowest.load(std::memory_order_relaxed))
                    return;
                std::size_t ran = 0;
                bool decides = true; // fails, or throws
                try {
                    decides = candidateFails(
                        _trace, _trace.schedule.subset(make(i)), ran);
                    fails[i] = decides ? 1 : 0;
                } catch (...) {
                    errors[i] = std::current_exception();
                }
                replays.fetch_add(ran, std::memory_order_relaxed);
                if (!decides)
                    return;
                std::size_t cur = lowest.load(std::memory_order_relaxed);
                while (i < cur &&
                       !lowest.compare_exchange_weak(
                           cur, i, std::memory_order_relaxed)) {
                }
            });
        }
        _pool.waitIdle();
        _stats.replays += replays.load(std::memory_order_relaxed);

        for (std::size_t i = 0; i < count; ++i) {
            if (_stats.probes >= _opts.maxProbes) {
                _stats.probeBudgetExhausted = true;
                return count;
            }
            ++_stats.probes;
            if (_opts.progress)
                _opts.progress(_stats.probes, best);
            if (errors[i])
                std::rethrow_exception(errors[i]);
            if (fails[i] != 0)
                return i;
        }
        return count;
    }

  private:
    const ReproTrace &_trace;
    const ShrinkOptions &_opts;
    ShrinkStats &_stats;
    ThreadPool _pool;
};

} // namespace

EpisodeSchedule
shrinkRepro(const ReproTrace &trace, const ShrinkOptions &opts,
            ShrinkStats *stats_out)
{
    assert(!trace.result.passed && "shrinking requires a failing trace");

    ShrinkStats stats;
    stats.originalEpisodes = trace.schedule.size();
    auto t0 = std::chrono::steady_clock::now();
    Prober prober(trace, opts, stats);

    // ddmin over indexes into the original schedule, preserving order.
    std::vector<std::size_t> keep(trace.schedule.size());
    for (std::size_t i = 0; i < keep.size(); ++i)
        keep[i] = i;

    std::size_t n = 2;
    while (keep.size() >= 2 && !stats.probeBudgetExhausted) {
        const std::size_t chunk = (keep.size() + n - 1) / n;
        const std::size_t chunks = (keep.size() + chunk - 1) / chunk;
        // Each chunk alone ("reduce to subset"), then, when n > 2, each
        // chunk's complement ("reduce to complement"). Every candidate
        // is non-empty and smaller than keep.
        const std::size_t count = n > 2 ? 2 * chunks : chunks;
        auto make = [&](std::size_t i) {
            const bool complement = i >= chunks;
            const std::size_t start = (complement ? i - chunks : i) * chunk;
            const std::size_t end = std::min(start + chunk, keep.size());
            if (!complement)
                return std::vector<std::size_t>(keep.begin() + start,
                                                keep.begin() + end);
            std::vector<std::size_t> out;
            out.reserve(keep.size() - (end - start));
            out.insert(out.end(), keep.begin(), keep.begin() + start);
            out.insert(out.end(), keep.begin() + end, keep.end());
            return out;
        };
        const std::size_t hit = prober.firstFailing(count, keep.size(), make);
        if (hit < count) {
            keep = make(hit);
            n = hit < chunks ? 2 : std::max<std::size_t>(n - 1, 2);
            ++stats.improvements;
        } else {
            if (n >= keep.size())
                break; // single-episode granularity reached
            n = std::min(n * 2, keep.size());
        }
    }

    // ddmin's 1-minimality only rules out removing single chunks; a
    // smaller non-contiguous subset (say, just the writer and the
    // reader episode) can survive it. Once the candidate set is small,
    // exhaustively probing all tiny subsets is a handful of cheap
    // replays, so finish with that polish: every subset of 1..3 of the
    // kept episodes, smallest first, each size in prev_permutation
    // order of a selection mask.
    constexpr std::size_t kPolishSetLimit = 12;
    constexpr std::size_t kPolishSizeLimit = 3;
    if (keep.size() > 1 && keep.size() <= kPolishSetLimit &&
        !stats.probeBudgetExhausted) {
        std::vector<std::vector<std::size_t>> subsets;
        for (std::size_t want = 1;
             want < std::min(keep.size(), kPolishSizeLimit + 1); ++want) {
            std::vector<bool> pick(keep.size(), false);
            std::fill(pick.begin(), pick.begin() + want, true);
            do {
                std::vector<std::size_t> subset;
                subset.reserve(want);
                for (std::size_t i = 0; i < keep.size(); ++i) {
                    if (pick[i])
                        subset.push_back(keep[i]);
                }
                subsets.push_back(std::move(subset));
            } while (std::prev_permutation(pick.begin(), pick.end()));
        }
        const std::size_t hit = prober.firstFailing(
            subsets.size(), keep.size(),
            [&](std::size_t i) { return subsets[i]; });
        if (hit < subsets.size()) {
            keep = std::move(subsets[hit]);
            ++stats.improvements;
        }
    }

    stats.shrunkEpisodes = keep.size();
    stats.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    if (stats_out != nullptr)
        *stats_out = stats;
    return trace.schedule.subset(keep);
}

} // namespace drf
