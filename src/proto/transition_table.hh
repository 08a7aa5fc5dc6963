/**
 * @file
 * Declarative transition tables for protocol controllers.
 *
 * A controller's behavior is a set of rows
 *
 *     (Event, State) -> { NextState, [Action, ...] }
 *
 * exactly like a SLICC specification. Instead of a hand-written switch
 * per handler, each controller builds one immutable TransitionTable at
 * startup and dispatches every message through TransitionTable::fire.
 *
 * The table is the single declaration of a controller: it is built
 * from the controller's name, states and events, each on() row defines
 * its (event, state) cell in the table's TransitionSpec, and the Impsb
 * marks follow the rows in the same static build. The spec that
 * coverage grids classify against is therefore exactly the set of
 * declared rows. Dispatch:
 *
 *  1. the (event, state) row is looked up; a *missing* row throws
 *     ProtocolError naming the offending row — there is no silent
 *     fallthrough path anywhere in the protocol layer;
 *  2. the activation is reported to the controller's CoverageGrid and
 *     the trace recorder (via the controller's transition() hook), so
 *     transition coverage comes for free with every fired row;
 *  3. the row's actions run in order. Actions are pointers to member
 *     functions of the controller taking the controller's TransCtx, so
 *     binding a row to the wrong controller or signature is a compile
 *     error.
 *
 * NextState is advisory documentation: these controllers derive state
 * from their structures (cache array + TBEs), so actions perform the
 * state change and kDynamic marks rows whose successor depends on data.
 * Protocol variants are pure data — a second protocol for the same
 * controller is just another table over (a superset of) the same
 * actions; see ProtocolKind and DESIGN.md §12.
 */

#ifndef DRF_PROTO_TRANSITION_TABLE_HH
#define DRF_PROTO_TRANSITION_TABLE_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "coverage/coverage.hh"
#include "proto/protocol_error.hh"

namespace drf
{

/**
 * The transition table of one controller type @p C.
 *
 * @tparam C  The controller class. Must expose:
 *            - nested types `Event`, `State` (integer enums indexing
 *              the TransitionSpec) and `TransCtx` (per-dispatch data);
 *            - `void transition(Event, State)` (coverage + trace hook);
 *            - `const std::string &name()` and `Tick curTick()` (for
 *              ProtocolError reports).
 */
template <typename C>
class TransitionTable
{
  public:
    using Ctx = typename C::TransCtx;
    using Action = void (C::*)(Ctx &);

    /** Most actions any single row chains. */
    static constexpr std::size_t kMaxActions = 4;

    /** NextState marker: the successor depends on runtime data. */
    static constexpr int kDynamic = -1;

    TransitionTable(std::string name, std::vector<std::string> states,
                    std::vector<std::string> events)
        : _spec(std::move(name), std::move(states), std::move(events)),
          _rows(_spec.numCells())
    {}

    /** The (event, state) space this table's rows define. */
    const TransitionSpec &spec() const { return _spec; }

    /** Declare the row for (event, state), defining that cell. */
    TransitionTable &
    on(std::size_t event, std::size_t state,
       std::initializer_list<Action> actions, int next_state = kDynamic)
    {
        Row &row = _rows[_spec.cell(event, state)];
        assert(!row.present && "duplicate table row");
        assert(actions.size() <= kMaxActions);
        _spec.define(event, state);
        row.present = true;
        row.next = static_cast<std::int16_t>(next_state);
        for (Action a : actions)
            row.actions[row.numActions++] = a;
        return *this;
    }

    /**
     * Mark a declared row unreachable under @p test_type (the Impsb
     * class of Section IV.B).
     */
    TransitionTable &
    markImpossible(const std::string &test_type, std::size_t event,
                   std::size_t state)
    {
        _spec.markImpossible(test_type, event, state);
        return *this;
    }

    /** Advisory successor of a declared row (kDynamic if data-driven). */
    int
    nextState(std::size_t event, std::size_t state) const
    {
        return _rows[_spec.cell(event, state)].next;
    }

    /**
     * Dispatch one event: record the activation and run the row's
     * actions. An undeclared row raises ProtocolError naming the row.
     */
    void
    fire(C &self, std::size_t event, std::size_t state, Ctx &ctx) const
    {
        fireWith(self, event, state, ctx,
                 [] { return std::string(); });
    }

    /**
     * fire() with lazy error detail: @p detail_fn (typically a
     * Packet::describe closure) is only invoked when the row is
     * missing, so the hot path never pays for string formatting.
     */
    template <typename DetailFn>
    void
    fireWith(C &self, std::size_t event, std::size_t state, Ctx &ctx,
             DetailFn &&detail_fn) const
    {
        const Row &row = _rows[_spec.cell(event, state)];
        if (!row.present)
            throwUnhandled(self, event, state, detail_fn());
        self.transition(static_cast<typename C::Event>(event),
                        static_cast<typename C::State>(state));
        for (std::uint8_t i = 0; i < row.numActions; ++i)
            (self.*row.actions[i])(ctx);
    }

  private:
    struct Row
    {
        std::array<Action, kMaxActions> actions{};
        std::uint8_t numActions = 0;
        std::int16_t next = kDynamic;
        bool present = false;
    };

    [[noreturn]] void
    throwUnhandled(const C &self, std::size_t event, std::size_t state,
                   const std::string &detail) const
    {
        std::string msg = "unhandled transition row (" +
                          _spec.events()[event] + ", " +
                          _spec.states()[state] + ") in " + _spec.name();
        if (!detail.empty())
            msg += ": " + detail;
        throw ProtocolError(self.name(), self.curTick(), msg);
    }

    TransitionSpec _spec;
    std::vector<Row> _rows;
};

} // namespace drf

#endif // DRF_PROTO_TRANSITION_TABLE_HH
