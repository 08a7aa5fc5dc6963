/**
 * @file
 * Deterministic UCB1 bandit over configuration arms.
 *
 * The guided scheduler treats each config genome as a bandit arm whose
 * reward is "newly covered cells per kilo-episode". Classic UCB1
 * (Auer et al. 2002): play every arm once, then play the arm
 * maximizing  mean + c * scale * sqrt(ln(totalPlays) / plays).
 *
 * Two departures, both for this workload:
 *  - rewards are not [0, 1]: the exploration term is scaled by the
 *    largest reward observed so far, making the policy invariant to
 *    the units of the reward;
 *  - everything is deterministic: ties break toward the lowest arm
 *    index, and there is no randomization anywhere, so a guided
 *    campaign's arm sequence is a pure function of the reward stream.
 */

#ifndef DRF_GUIDANCE_BANDIT_HH
#define DRF_GUIDANCE_BANDIT_HH

#include <cstdint>
#include <vector>

namespace drf
{

class Ucb1Bandit
{
  public:
    explicit Ucb1Bandit(double exploration = 1.0)
        : _exploration(exploration)
    {
    }

    /** Add an arm; returns its index. */
    std::size_t
    addArm()
    {
        _arms.push_back({});
        return _arms.size() - 1;
    }

    std::uint64_t totalPlays() const { return _totalPlays; }

    std::uint64_t plays(std::size_t arm) const
    {
        return _arms[arm].plays;
    }

    /** Mean reward of an arm; 0 while unplayed. */
    double mean(std::size_t arm) const;

    /**
     * UCB score of a played arm (mean + scaled exploration bonus).
     * @pre plays(arm) > 0 and totalPlays() > 0
     */
    double ucbScore(std::size_t arm) const;

    /**
     * Arm to play next: the lowest-index unplayed arm if any, else the
     * highest UCB score (ties toward the lowest index).
     * @pre at least one addArm() call
     */
    std::size_t select() const;

    /** Record one play of @p arm with observed @p reward. */
    void update(std::size_t arm, double reward);

  private:
    struct Arm
    {
        std::uint64_t plays = 0;
        double rewardSum = 0.0;
    };

    std::vector<Arm> _arms;
    std::uint64_t _totalPlays = 0;
    double _exploration;
    double _rewardScale = 0.0; ///< max reward seen
};

} // namespace drf

#endif // DRF_GUIDANCE_BANDIT_HH
