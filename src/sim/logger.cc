#include "sim/logger.hh"

#include <cstdio>
#include <cstdlib>

namespace drf
{

namespace
{

/** enabled() logic, factored so callers can hold the lock. */
bool
flagEnabled(bool all_enabled, const std::unordered_set<std::string> &flags,
            const std::string &flag)
{
    return all_enabled || flags.count(flag) > 0;
}

} // namespace

Logger &
Logger::get()
{
    static Logger instance;
    return instance;
}

Logger::Logger()
{
    if (const char *env = std::getenv("DRF_DEBUG_FLAGS")) {
        std::string flags(env);
        std::size_t start = 0;
        while (start <= flags.size()) {
            std::size_t comma = flags.find(',', start);
            if (comma == std::string::npos)
                comma = flags.size();
            if (comma > start)
                enable(flags.substr(start, comma - start));
            start = comma + 1;
        }
    }
}

void
Logger::syncAnyEnabledLocked()
{
    _anyEnabled.store(_allEnabled || !_flags.empty(),
                      std::memory_order_release);
}

void
Logger::enable(const std::string &flag)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (flag == "all")
        _allEnabled = true;
    else
        _flags.insert(flag);
    syncAnyEnabledLocked();
}

void
Logger::disable(const std::string &flag)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (flag == "all")
        _allEnabled = false;
    else
        _flags.erase(flag);
    syncAnyEnabledLocked();
}

void
Logger::disableAll()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _allEnabled = false;
    _flags.clear();
    syncAnyEnabledLocked();
}

bool
Logger::enabled(const std::string &flag) const
{
    if (!_anyEnabled.load(std::memory_order_acquire))
        return false;
    std::lock_guard<std::mutex> lock(_mutex);
    return flagEnabled(_allEnabled, _flags, flag);
}

void
Logger::record(Tick tick, const std::string &flag, const std::string &who,
               const std::string &msg)
{
    std::string line = std::to_string(tick) + ": " + who + " [" + flag +
                       "] " + msg;
    std::lock_guard<std::mutex> lock(_mutex);
    if (_historyDepth > 0) {
        _history.push_back(line);
        while (_history.size() > _historyDepth)
            _history.pop_front();
    }
    if (flagEnabled(_allEnabled, _flags, flag))
        std::printf("%s\n", line.c_str());
}

std::vector<std::string>
Logger::history() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return {_history.begin(), _history.end()};
}

void
Logger::dumpHistory() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::fprintf(stderr, "==== recent transaction history (%zu records)\n",
                 _history.size());
    for (const auto &line : _history)
        std::fprintf(stderr, "  %s\n", line.c_str());
}

void
Logger::setHistoryDepth(std::size_t depth)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _historyDepth = depth;
    while (_history.size() > _historyDepth)
        _history.pop_front();
}

void
Logger::clearHistory()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _history.clear();
}

} // namespace drf
