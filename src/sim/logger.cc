#include "sim/logger.hh"

#include <cstdio>
#include <cstdlib>

namespace drf
{

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
    return _allEnabled || _flags.count(flag) > 0;
}

void
Logger::record(Tick tick, const std::string &flag, const std::string &who,
               const std::string &msg)
{
    if (!enabled(flag))
        return;
    std::printf("%llu: %s [%s] %s\n", static_cast<unsigned long long>(tick),
                who.c_str(), flag.c_str(), msg.c_str());
}

} // namespace drf
