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
Logger::enable(const std::string &flag)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (flag == "all")
        _allEnabled = true;
    else
        _flags.insert(flag);
}

void
Logger::disable(const std::string &flag)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (flag == "all")
        _allEnabled = false;
    else
        _flags.erase(flag);
}

void
Logger::disableAll()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _allEnabled = false;
    _flags.clear();
}

bool
Logger::enabled(const std::string &flag) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return flagEnabled(_allEnabled, _flags, flag);
}

void
Logger::record(Tick tick, const std::string &flag, const std::string &who,
               const std::string &msg)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (flagEnabled(_allEnabled, _flags, flag))
        std::printf("%llu: %s [%s] %s\n",
                    static_cast<unsigned long long>(tick), who.c_str(),
                    flag.c_str(), msg.c_str());
}

} // namespace drf
