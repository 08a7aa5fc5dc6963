#include "coverage/coverage.hh"

#include <cassert>
#include <cmath>
#include <iomanip>

namespace drf
{

const char *
cellClassName(CellClass c)
{
    switch (c) {
      case CellClass::Undef: return "Undef";
      case CellClass::Inact: return "Inact";
      case CellClass::Active: return "Active";
      case CellClass::Impsb: return "Impsb";
    }
    return "?";
}

TransitionSpec::TransitionSpec(std::string controller_name,
                               std::vector<std::string> states,
                               std::vector<std::string> events)
    : _name(std::move(controller_name)), _states(std::move(states)),
      _events(std::move(events)),
      _defined(_states.size() * _events.size(), false)
{
}

void
TransitionSpec::define(std::size_t event, std::size_t state)
{
    _defined[cell(event, state)] = true;
}

bool
TransitionSpec::defined(std::size_t event, std::size_t state) const
{
    return _defined[cell(event, state)];
}

std::size_t
TransitionSpec::definedCount() const
{
    std::size_t count = 0;
    for (bool d : _defined)
        count += d ? 1 : 0;
    return count;
}

void
TransitionSpec::markImpossible(const std::string &test_type,
                               std::size_t event, std::size_t state)
{
    assert(defined(event, state) &&
           "only defined transitions can be marked impossible");
    _impossibleSets[test_type].insert(cell(event, state));
}

bool
TransitionSpec::impossible(const std::string &test_type, std::size_t event,
                           std::size_t state) const
{
    auto it = _impossibleSets.find(test_type);
    if (it == _impossibleSets.end())
        return false;
    return it->second.count(cell(event, state)) > 0;
}

std::size_t
TransitionSpec::impossibleCount(const std::string &test_type) const
{
    auto it = _impossibleSets.find(test_type);
    return it == _impossibleSets.end() ? 0 : it->second.size();
}

std::size_t
TransitionSpec::reachableCount(const std::string &test_type) const
{
    return definedCount() - impossibleCount(test_type);
}

std::size_t
TransitionSpec::stateIndex(const std::string &state_name) const
{
    for (std::size_t i = 0; i < _states.size(); ++i) {
        if (_states[i] == state_name)
            return i;
    }
    assert(false && "unknown state name");
    return 0;
}

std::size_t
TransitionSpec::eventIndex(const std::string &event_name) const
{
    for (std::size_t i = 0; i < _events.size(); ++i) {
        if (_events[i] == event_name)
            return i;
    }
    assert(false && "unknown event name");
    return 0;
}

CoverageGrid::CoverageGrid(const TransitionSpec &spec)
    : _spec(&spec), _counts(spec.numCells(), 0)
{
}

void
CoverageGrid::hit(std::size_t event, std::size_t state)
{
    ++_counts[_spec->cell(event, state)];
    ++_totalHits;
}

std::uint64_t
CoverageGrid::count(std::size_t event, std::size_t state) const
{
    return _counts[_spec->cell(event, state)];
}

void
CoverageGrid::setCount(std::size_t event, std::size_t state,
                       std::uint64_t count)
{
    std::uint64_t &slot = _counts[_spec->cell(event, state)];
    _totalHits += count - slot;
    slot = count;
}

void
CoverageGrid::merge(const CoverageGrid &other)
{
    assert(_spec == other._spec && "merging grids over different specs");
    for (std::size_t i = 0; i < _counts.size(); ++i)
        _counts[i] += other._counts[i];
    _totalHits += other._totalHits;
}

std::size_t
CoverageGrid::newlyCovered(const CoverageGrid &other) const
{
    assert(_spec == other._spec &&
           "comparing grids over different specs");
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < _counts.size(); ++i) {
        if (other._counts[i] > 0 && _counts[i] == 0)
            ++fresh;
    }
    return fresh;
}

CoverageGrid
CoverageGrid::diff(const CoverageGrid &other) const
{
    assert(_spec == other._spec &&
           "diffing grids over different specs");
    CoverageGrid result(*_spec);
    for (std::size_t i = 0; i < _counts.size(); ++i) {
        if (_counts[i] > 0 && other._counts[i] == 0) {
            result._counts[i] = 1;
            ++result._totalHits;
        }
    }
    return result;
}

std::uint64_t
CoverageGrid::activeDigest() const
{
    // FNV-1a over the spec shape and the active-cell bitset.
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(_spec->numEvents());
    mix(_spec->numStates());
    for (std::size_t i = 0; i < _counts.size(); ++i)
        mix(_counts[i] > 0 ? 1 : 0);
    return h;
}

void
CoverageGrid::reset()
{
    _counts.assign(_counts.size(), 0);
    _totalHits = 0;
}

CellClass
CoverageGrid::classify(std::size_t event, std::size_t state,
                       const std::string &test_type) const
{
    if (!_spec->defined(event, state))
        return CellClass::Undef;
    if (_spec->impossible(test_type, event, state))
        return CellClass::Impsb;
    if (count(event, state) > 0)
        return CellClass::Active;
    return CellClass::Inact;
}

std::size_t
CoverageGrid::activeCount(const std::string &test_type) const
{
    std::size_t active = 0;
    for (std::size_t e = 0; e < _spec->numEvents(); ++e) {
        for (std::size_t s = 0; s < _spec->numStates(); ++s) {
            if (classify(e, s, test_type) == CellClass::Active)
                ++active;
        }
    }
    return active;
}

double
CoverageGrid::coveragePct(const std::string &test_type) const
{
    std::size_t reachable = _spec->reachableCount(test_type);
    if (reachable == 0)
        return 0.0;
    return 100.0 * static_cast<double>(activeCount(test_type)) /
           static_cast<double>(reachable);
}

namespace
{

/** Shade character by log10 of the count. */
char
shade(std::uint64_t count)
{
    if (count == 0)
        return ' ';
    double mag = std::log10(static_cast<double>(count));
    static const char levels[] = {'.', ':', '+', '*', '#', '@'};
    int idx = static_cast<int>(mag);
    if (idx < 0)
        idx = 0;
    if (idx > 5)
        idx = 5;
    return levels[idx];
}

std::size_t
maxEventNameWidth(const TransitionSpec &spec)
{
    std::size_t width = 0;
    for (const auto &e : spec.events())
        width = std::max(width, e.size());
    return width;
}

} // namespace

void
CoverageGrid::renderHeatMap(std::ostream &os) const
{
    const auto &spec = *_spec;
    std::size_t label_w = maxEventNameWidth(spec);

    os << spec.name() << " transition hit frequency "
       << "(blank=0  .=1+  :=10+  +=100+  *=1k+  #=10k+  @=100k+  "
       << "U=undefined)\n";
    os << std::string(label_w, ' ') << " |";
    for (const auto &state : spec.states())
        os << " " << std::setw(5) << state << " |";
    os << "\n";

    for (std::size_t e = 0; e < spec.numEvents(); ++e) {
        os << std::setw(static_cast<int>(label_w)) << spec.events()[e]
           << " |";
        for (std::size_t s = 0; s < spec.numStates(); ++s) {
            char c = spec.defined(e, s) ? shade(count(e, s)) : 'U';
            os << "   " << c << "   |";
        }
        os << "\n";
    }
}

std::size_t
CoverageAccumulator::add(const CoverageGrid &grid)
{
    for (CoverageGrid &u : _unions) {
        if (u.spec().name() == grid.spec().name()) {
            std::size_t fresh = u.newlyCovered(grid);
            u.merge(grid);
            return fresh;
        }
    }
    _unions.emplace_back(grid.spec());
    CoverageGrid &u = _unions.back();
    std::size_t fresh = u.newlyCovered(grid);
    u.merge(grid);
    return fresh;
}

const CoverageGrid &
CoverageAccumulator::grid() const
{
    assert(!_unions.empty() && "empty coverage accumulator");
    return _unions.front();
}

double
CoverageAccumulator::coveragePct(const std::string &test_type) const
{
    std::size_t active = 0, reachable = 0;
    for (const CoverageGrid &u : _unions) {
        active += u.activeCount(test_type);
        reachable += u.spec().reachableCount(test_type);
    }
    if (reachable == 0)
        return 0.0;
    return 100.0 * static_cast<double>(active) /
           static_cast<double>(reachable);
}

std::size_t
CoverageAccumulator::activeCount(const std::string &test_type) const
{
    std::size_t active = 0;
    for (const CoverageGrid &u : _unions)
        active += u.activeCount(test_type);
    return active;
}

void
CoverageGrid::renderClassMap(std::ostream &os,
                             const std::string &test_type) const
{
    const auto &spec = *_spec;
    std::size_t label_w = maxEventNameWidth(spec);

    os << spec.name()
       << " transition classes (A=active  .=inactive  U=undefined  "
       << "X=impossible)\n";
    os << std::string(label_w, ' ') << " |";
    for (const auto &state : spec.states())
        os << " " << std::setw(5) << state << " |";
    os << "\n";

    for (std::size_t e = 0; e < spec.numEvents(); ++e) {
        os << std::setw(static_cast<int>(label_w)) << spec.events()[e]
           << " |";
        for (std::size_t s = 0; s < spec.numStates(); ++s) {
            char c = '?';
            switch (classify(e, s, test_type)) {
              case CellClass::Undef: c = 'U'; break;
              case CellClass::Inact: c = '.'; break;
              case CellClass::Active: c = 'A'; break;
              case CellClass::Impsb: c = 'X'; break;
            }
            os << "   " << c << "   |";
        }
        os << "\n";
    }
}

} // namespace drf
