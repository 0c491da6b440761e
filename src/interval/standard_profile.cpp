#include "interval/standard_profile.h"

#include <filesystem>
#include <utility>
#include <vector>

#include "interval/record.h"

namespace ute {

namespace {

using FieldList = std::vector<std::pair<const char*, DataType>>;

/// Adds the four bebits variants of one state-like event type. Every
/// variant carries the common fields and `always`; first pieces
/// additionally carry `onBegin` (call arguments), last pieces `onEnd`
/// (call results); every variant ends with the merged-file-only
/// origStart field.
void addStateSpecs(ProfileBuilder& b, EventType event, const std::string& name,
                   const FieldList& always = {}, const FieldList& onBegin = {},
                   const FieldList& onEnd = {}) {
  for (const Bebits bebits : {Bebits::kComplete, Bebits::kBegin,
                              Bebits::kContinuation, Bebits::kEnd}) {
    b.record(makeIntervalType(event, bebits), name);
    b.scalar(kFieldType, DataType::kU32);
    b.scalar(kFieldStart, DataType::kU64);
    b.scalar(kFieldDura, DataType::kU64);
    b.scalar(kFieldCpu, DataType::kI32);
    b.scalar(kFieldNode, DataType::kI32);
    b.scalar(kFieldThread, DataType::kI32);
    for (const auto& [fieldName, type] : always) b.scalar(fieldName, type);
    if (isFirstPiece(bebits)) {
      for (const auto& [fieldName, type] : onBegin) b.scalar(fieldName, type);
    }
    if (isLastPiece(bebits)) {
      for (const auto& [fieldName, type] : onEnd) b.scalar(fieldName, type);
    }
    b.scalar(kFieldOrigStart, DataType::kU64, /*attr=*/1);
  }
}

}  // namespace

Profile makeStandardProfile() {
  ProfileBuilder b(kStandardProfileVersion);

  addStateSpecs(b, kRunningState, "Running");

  // Clock-sync pseudo intervals exist only as complete records.
  b.record(makeIntervalType(kClockSyncState, Bebits::kComplete), "ClockSync");
  b.scalar(kFieldType, DataType::kU32);
  b.scalar(kFieldStart, DataType::kU64);
  b.scalar(kFieldDura, DataType::kU64);
  b.scalar(kFieldCpu, DataType::kI32);
  b.scalar(kFieldNode, DataType::kI32);
  b.scalar(kFieldThread, DataType::kI32);
  b.scalar(kFieldGlobalTime, DataType::kU64);
  b.scalar(kFieldOrigStart, DataType::kU64, /*attr=*/1);

  addStateSpecs(b, EventType::kUserMarker, "UserMarker",
                /*always=*/{{kFieldMarkerId, DataType::kU32}},
                /*onBegin=*/{{kFieldInstrBegin, DataType::kU64}},
                /*onEnd=*/{{kFieldInstrEnd, DataType::kU64}});

  // Section 5 extension activities: blocking I/O calls become states,
  // page faults are point (complete, zero-duration) records.
  addStateSpecs(b, EventType::kIoRead, "IoRead", {},
                {{kFieldIoBytes, DataType::kU32}});
  addStateSpecs(b, EventType::kIoWrite, "IoWrite", {},
                {{kFieldIoBytes, DataType::kU32}});
  b.record(makeIntervalType(EventType::kPageFault, Bebits::kComplete),
           "PageFault");
  b.scalar(kFieldType, DataType::kU32);
  b.scalar(kFieldStart, DataType::kU64);
  b.scalar(kFieldDura, DataType::kU64);
  b.scalar(kFieldCpu, DataType::kI32);
  b.scalar(kFieldNode, DataType::kI32);
  b.scalar(kFieldThread, DataType::kI32);
  b.scalar(kFieldFaultAddr, DataType::kU64);
  b.scalar(kFieldOrigStart, DataType::kU64, /*attr=*/1);

  addStateSpecs(b, EventType::kMpiInit, "MPI_Init");
  addStateSpecs(b, EventType::kMpiFinalize, "MPI_Finalize");

  addStateSpecs(b, EventType::kMpiSend, "MPI_Send", {},
                {{kFieldDestTask, DataType::kI32},
                 {kFieldTag, DataType::kI32},
                 {kFieldMsgSizeSent, DataType::kU32},
                 {kFieldSeqNo, DataType::kU32},
                 {kFieldComm, DataType::kI32}});

  addStateSpecs(b, EventType::kMpiIsend, "MPI_Isend", {},
                {{kFieldDestTask, DataType::kI32},
                 {kFieldTag, DataType::kI32},
                 {kFieldMsgSizeSent, DataType::kU32},
                 {kFieldSeqNo, DataType::kU32},
                 {kFieldComm, DataType::kI32},
                 {kFieldReqSlot, DataType::kI32}});

  addStateSpecs(b, EventType::kMpiRecv, "MPI_Recv", {},
                {{kFieldSrcWanted, DataType::kI32},
                 {kFieldTagWanted, DataType::kI32},
                 {kFieldComm, DataType::kI32}},
                {{kFieldSrcTask, DataType::kI32},
                 {kFieldTagRecv, DataType::kI32},
                 {kFieldMsgSizeRecv, DataType::kU32},
                 {kFieldSeqNo, DataType::kU32}});

  addStateSpecs(b, EventType::kMpiIrecv, "MPI_Irecv", {},
                {{kFieldSrcWanted, DataType::kI32},
                 {kFieldTagWanted, DataType::kI32},
                 {kFieldComm, DataType::kI32},
                 {kFieldReqSlot, DataType::kI32}});

  addStateSpecs(b, EventType::kMpiWait, "MPI_Wait", {},
                {{kFieldReqSlot, DataType::kI32}},
                {{kFieldSrcTask, DataType::kI32},
                 {kFieldTagRecv, DataType::kI32},
                 {kFieldMsgSizeRecv, DataType::kU32},
                 {kFieldSeqNo, DataType::kU32}});

  addStateSpecs(b, EventType::kMpiBarrier, "MPI_Barrier", {},
                {{kFieldComm, DataType::kI32}});

  for (const auto& [event, name] :
       {std::pair{EventType::kMpiBcast, "MPI_Bcast"},
        std::pair{EventType::kMpiReduce, "MPI_Reduce"},
        std::pair{EventType::kMpiAllreduce, "MPI_Allreduce"},
        std::pair{EventType::kMpiAlltoall, "MPI_Alltoall"}}) {
    addStateSpecs(b, event, name, {},
                  {{kFieldCollBytes, DataType::kU32},
                   {kFieldRoot, DataType::kI32},
                   {kFieldComm, DataType::kI32}});
  }

  return b.build();
}

Profile ensureStandardProfileFile(const std::string& path) {
  Profile p = makeStandardProfile();
  if (!std::filesystem::exists(path)) p.writeFile(path);
  return p;
}

Profile loadProfileOrStandard(const std::string& path) {
  try {
    return Profile::readFile(path);
  } catch (const IoError&) {
    return makeStandardProfile();
  }
}

}  // namespace ute
