/**
 * @file
 * Minimal statistics package: named counters and a formatter. Modelled
 * after gem5's Stats but only what the experiments need.
 */

#ifndef DRF_SIM_STATS_HH
#define DRF_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace drf
{

/** A named monotonically increasing counter. */
class Counter
{
  public:
    explicit Counter(std::string name) : _name(std::move(name)) {}

    void inc(std::uint64_t by = 1) { _value += by; }
    std::uint64_t value() const { return _value; }
    const std::string &name() const { return _name; }
    void reset() { _value = 0; }

  private:
    std::string _name;
    std::uint64_t _value = 0;
};

/**
 * A registry of counters belonging to one component, dumped as
 * "component.counter value" lines like gem5's stats.txt.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string prefix) : _prefix(std::move(prefix)) {}

    /** Create-or-fetch a counter by short name. */
    Counter &
    counter(const std::string &name)
    {
        auto it = _counters.find(name);
        if (it == _counters.end()) {
            it = _counters.emplace(name, Counter(_prefix + "." + name))
                     .first;
        }
        return it->second;
    }

    /** Value of a counter, zero if never touched. */
    std::uint64_t
    value(const std::string &name) const
    {
        auto it = _counters.find(name);
        return it == _counters.end() ? 0 : it->second.value();
    }

    void
    dump(std::ostream &os) const
    {
        for (const auto &[short_name, ctr] : _counters)
            os << ctr.name() << " " << ctr.value() << "\n";
    }

    void
    reset()
    {
        for (auto &[short_name, ctr] : _counters)
            ctr.reset();
    }

  private:
    std::string _prefix;
    std::map<std::string, Counter> _counters;
};

} // namespace drf

#endif // DRF_SIM_STATS_HH
