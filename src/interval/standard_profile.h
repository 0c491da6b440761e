// The standard description profile for UTE traces.
//
// One spec per (event type, bebits) combination, as the paper prescribes:
// a begin piece of an MPI_Send and its continuation pieces are distinct
// interval types with distinct field sets. Field ordering convention per
// state type: fields carried by *every* piece first, then fields only on
// first pieces (begin/complete) — a call's arguments — then fields only
// on last pieces (end/complete) — a call's results. The convert utility
// relies on this order to assemble record bodies by concatenation.
//
// The field selection attributes used:
//   attr 0 — present in every interval file,
//   attr 1 — present only in merged files ("origStart": the record's
//            pre-adjustment local start time, kept for provenance).
// Hence kNodeFileMask selects attr 0 only and kMergedFileMask both.
#pragma once

#include <cstdint>

#include "interval/profile.h"

namespace ute {

inline constexpr std::uint32_t kStandardProfileVersion = 0x00010003;
inline constexpr std::uint64_t kNodeFileMask = 0x1;
inline constexpr std::uint64_t kMergedFileMask = 0x3;

/// Conventional file name for the standard profile ("profile.ute").
inline constexpr const char* kStandardProfileFileName = "profile.ute";

// Field names beyond the common six (see record.h). Kept as constants so
// utilities, tests and the statistics language agree on spelling.
inline constexpr const char* kFieldOrigStart = "origStart";
inline constexpr const char* kFieldGlobalTime = "globalTime";
inline constexpr const char* kFieldMarkerId = "markerId";
inline constexpr const char* kFieldInstrBegin = "instrAddrBegin";
inline constexpr const char* kFieldInstrEnd = "instrAddrEnd";
inline constexpr const char* kFieldDestTask = "destTask";
inline constexpr const char* kFieldTag = "tag";
inline constexpr const char* kFieldMsgSizeSent = "msgSizeSent";
inline constexpr const char* kFieldSeqNo = "seqNo";
inline constexpr const char* kFieldComm = "comm";
inline constexpr const char* kFieldReqSlot = "reqSlot";
inline constexpr const char* kFieldSrcWanted = "srcWanted";
inline constexpr const char* kFieldTagWanted = "tagWanted";
inline constexpr const char* kFieldSrcTask = "srcTask";
inline constexpr const char* kFieldTagRecv = "tagRecv";
inline constexpr const char* kFieldMsgSizeRecv = "msgSizeRecv";
inline constexpr const char* kFieldCollBytes = "collBytes";
inline constexpr const char* kFieldRoot = "root";
inline constexpr const char* kFieldIoBytes = "ioBytes";
inline constexpr const char* kFieldFaultAddr = "faultAddr";

/// Builds the standard profile (deterministic: same bytes every time).
Profile makeStandardProfile();

/// Writes the standard profile to `path` if it does not already exist,
/// and returns it.
Profile ensureStandardProfileFile(const std::string& path);

/// The profile the tools run with: the one at `path` (their `--profile`,
/// default kStandardProfileFileName), or the standard profile when that
/// file cannot be read. A file that exists but is malformed still throws.
Profile loadProfileOrStandard(const std::string& path);

}  // namespace ute
