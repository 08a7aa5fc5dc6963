#include "chaos/disk_chaos.hh"

#include <memory>

namespace drf::chaos {

DiskWriteFate
DiskChaos::writeFate(std::size_t len) {
  DiskWriteFate fate;
  fate.allow = len;

  if (_rates.enospcAfterBytes >= 0 &&
      _bytesAccepted + static_cast<std::int64_t>(len) >
          _rates.enospcAfterBytes) {
    std::int64_t room = _rates.enospcAfterBytes - _bytesAccepted;
    fate.allow = room > 0 ? static_cast<std::size_t>(room) : 0;
    fate.err = ENOSPC;
    ++_stats.enospcHits;
    _bytesAccepted += static_cast<std::int64_t>(fate.allow);
    return fate;
  }
  if (_rng.chancePct(_rates.writeFailPct)) {
    fate.allow = 0;
    fate.err = EIO;
    ++_stats.writeFailures;
    return fate;
  }
  if (len > 0 && _rng.chancePct(_rates.shortWritePct)) {
    // The device accepts a strict prefix, then errors: the bytes that
    // landed form a torn record the loader must later skip.
    fate.allow = static_cast<std::size_t>(_rng.below(len));
    fate.err = EIO;
    ++_stats.shortWrites;
    _bytesAccepted += static_cast<std::int64_t>(fate.allow);
    return fate;
  }
  _bytesAccepted += static_cast<std::int64_t>(len);
  return fate;
}

int
DiskChaos::syncFate() {
  if (_rng.chancePct(_rates.fsyncFailPct)) {
    ++_stats.fsyncFailures;
    return EIO;
  }
  return 0;
}

CampaignJournal::Policy
diskChaosJournalPolicy(std::uint64_t chaos_seed, const DiskRates& rates) {
  CampaignJournal::Policy policy;
  if (!rates.any()) return policy;
  auto disk = std::make_shared<DiskChaos>(
      deriveSeed(chaos_seed, "disk:journal"), rates);
  policy.writeFault = [disk](std::size_t len) {
    DiskWriteFate fate = disk->writeFate(len);
    return JournalWriteFate{fate.allow, fate.err};
  };
  policy.syncFault = [disk] { return disk->syncFate(); };
  return policy;
}

}  // namespace drf::chaos
