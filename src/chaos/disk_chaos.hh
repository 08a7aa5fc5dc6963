#pragma once
// Disk fault planner for the journal writer.  Like WireChaos this is
// pure decision logic: the journal asks what should happen to its next
// write()/fsync() and applies the verdict itself, so the chaos library
// stays free of file descriptors and the journal stays free of chaos
// types (it takes std::function hooks; see CampaignJournal::Policy).

#include <cerrno>
#include <cstddef>
#include <cstdint>

#include "campaign/journal.hh"
#include "chaos/chaos.hh"

namespace drf::chaos {

/** Verdict for one write() of `len` bytes. */
struct DiskWriteFate {
  std::size_t allow = 0;  // bytes the "device" accepts (prefix)
  int err = 0;            // errno raised after the prefix; 0 = success
};

class DiskChaos {
 public:
  DiskChaos(std::uint64_t seed, const DiskRates& rates)
      : _rng(seed), _rates(rates) {}

  DiskWriteFate writeFate(std::size_t len);
  /** 0 = fsync succeeds, else the errno it fails with. */
  int syncFate();

  const ChaosStats& stats() const { return _stats; }

 private:
  ChaosRng _rng;
  DiskRates _rates;
  ChaosStats _stats;
  std::int64_t _bytesAccepted = 0;
};

/**
 * A journal policy whose write() and fsync() calls fail as `rates`
 * say, on the "disk:journal" stream of `chaos_seed`; all-zero rates
 * give the default policy. The faults go below the writer's own
 * retry/degrade ladder, which is the code under test. Copies of the
 * policy share one fault stream.
 */
CampaignJournal::Policy diskChaosJournalPolicy(std::uint64_t chaos_seed,
                                               const DiskRates& rates);

}  // namespace drf::chaos
