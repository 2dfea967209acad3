//===- support/ContentStore.cpp - Content-addressed blob store ------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "support/ContentStore.h"
#include "support/FaultInjection.h"
#include "support/StableHash.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

namespace ipcp {

namespace {

// mkdir -p: a store rooted at a not-yet-existing nested path must come
// up on first put, not fail every write because the parent is missing.
bool ensureDir(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) == 0)
    return S_ISDIR(St.st_mode);
  size_t Slash = Path.find_last_of('/');
  if (Slash != std::string::npos && Slash > 0 &&
      !ensureDir(Path.substr(0, Slash)))
    return false;
  return ::mkdir(Path.c_str(), 0755) == 0 || errno == EEXIST;
}

bool dirExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
}

// The scrub and the load path read through this rather than FileIO so
// recovery itself is not a fault-injection target: a plan that fails
// every read must not be able to make the scrub quarantine good objects.
bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

// Directory listing, sorted so scrub order (and therefore scrub
// counters and any injected-fault schedule) is deterministic.
bool listDir(const std::string &Dir, std::vector<std::string> &Names) {
  Names.clear();
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return false;
  while (dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name != "." && Name != "..")
      Names.push_back(std::move(Name));
  }
  ::closedir(D);
  std::sort(Names.begin(), Names.end());
  return true;
}

// fsync of a file written durably, and of the directory after a rename
// so the new directory entry itself reaches disk.
bool fsyncPath(const std::string &Path, bool IsDir, std::string *Error) {
  int Fd = ::open(Path.c_str(), IsDir ? (O_RDONLY | O_DIRECTORY) : O_WRONLY);
  if (Fd < 0) {
    if (Error)
      *Error = "cannot open '" + Path + "' for fsync: " + std::strerror(errno);
    return false;
  }
  int RC;
  do
    RC = ::fsync(Fd);
  while (RC < 0 && errno == EINTR);
  ::close(Fd);
  if (RC < 0) {
    if (Error)
      *Error = "fsync '" + Path + "' failed: " + std::strerror(errno);
    return false;
  }
  return true;
}

std::string parentDir(const std::string &Path) {
  size_t Pos = Path.find_last_of('/');
  return Pos == std::string::npos ? std::string(".") : Path.substr(0, Pos);
}

/// Fault points bracketing one atomic write: `Write` fires before any
/// byte is written (a clean failure), `Commit` fires after the temp
/// file is complete but before the rename — the temp file is left
/// behind, simulating a crash mid-write (a torn write) for the
/// recovery scrub to find.
struct WriteFaultPoints {
  const char *Write;
  const char *Commit;
};

// Write-to-temp then rename: readers on any thread or process see either
// nothing or the complete file, never a prefix. The temp name carries a
// process-unique serial so concurrent writers of the same object cannot
// collide on the temp file either. With Durable, the temp file is
// fsynced before the rename and the directory after it.
bool atomicWrite(const std::string &Path, const std::string &Bytes,
                 std::string *Error, const WriteFaultPoints &FP,
                 bool Durable) {
  if (faultInjector().shouldFail(FP.Write, Error))
    return false;
  if (!ensureDir(parentDir(Path))) {
    if (Error)
      *Error = "cannot create directory " + parentDir(Path);
    return false;
  }
  static std::atomic<uint64_t> Serial{0};
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(Serial.fetch_add(1));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      if (Error)
        *Error = "cannot open " + Tmp + " for writing";
      return false;
    }
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    Out.flush();
    if (!Out) {
      if (Error)
        *Error = "short write to " + Tmp;
      std::remove(Tmp.c_str());
      return false;
    }
  }
  if (Durable) {
    if (faultInjector().shouldFail("store.fsync", Error)) {
      std::remove(Tmp.c_str());
      return false;
    }
    if (!fsyncPath(Tmp, /*IsDir=*/false, Error)) {
      std::remove(Tmp.c_str());
      return false;
    }
  }
  if (faultInjector().shouldFail(FP.Commit, Error))
    return false; // deliberately leaves the temp file: a torn write
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    if (Error)
      *Error = std::string("rename failed: ") + std::strerror(errno);
    std::remove(Tmp.c_str());
    return false;
  }
  if (Durable)
    fsyncPath(parentDir(Path), /*IsDir=*/true, nullptr); // best effort
  return true;
}

bool isTempFile(const std::string &Name) {
  return Name.find(".tmp.") != std::string::npos;
}

bool hasSuffix(const std::string &Name, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0;
}

} // namespace

ContentStore::ContentStore(std::string RootDir, Options O)
    : Root(std::move(RootDir)), Opts(O) {
  if (Opts.ScrubOnOpen && dirExists(Root))
    scrub();
}

std::string ContentStore::contentKey(const std::string &Bytes) {
  return stableHashHex(stableHashBytes(Bytes));
}

std::string ContentStore::objectPath(const std::string &Key) const {
  return Root + "/objects/" + Key + ".blob";
}

std::string ContentStore::refPath(const std::string &LogicalName) const {
  return Root + "/refs/" + stableHashHex(stableHashBytes(LogicalName)) +
         ".ref";
}

std::string ContentStore::quarantinePath(const std::string &Name) const {
  return Root + "/quarantine/" + Name;
}

std::string ContentStore::put(const std::string &Bytes, std::string *Error) {
  std::string Key = contentKey(Bytes);
  std::string Path = objectPath(Key);
  if (fileExists(Path)) {
    bump(DedupHits);
    return Key;
  }
  WriteFaultPoints FP{"store.write.object", "store.commit.object"};
  if (!atomicWrite(Path, Bytes, Error, FP, Opts.Durable)) {
    bump(Errors);
    return std::string();
  }
  bump(ObjectsWritten);
  return Key;
}

bool ContentStore::bind(const std::string &LogicalName, const std::string &Key,
                        std::string *Error) {
  WriteFaultPoints FP{"store.write.ref", "store.commit.ref"};
  if (!atomicWrite(refPath(LogicalName), Key + "\n", Error, FP,
                   Opts.Durable)) {
    bump(Errors);
    return false;
  }
  return true;
}

std::string ContentStore::putNamed(const std::string &LogicalName,
                                   const std::string &Bytes,
                                   std::string *Error) {
  std::string Key = put(Bytes, Error);
  if (Key.empty())
    return Key;
  if (!bind(LogicalName, Key, Error))
    return std::string();
  return Key;
}

ContentStore::Lookup ContentStore::get(const std::string &LogicalName,
                                       std::string &BytesOut) {
  std::string Ref;
  if (faultInjector().shouldFail("store.read.ref") ||
      !readFile(refPath(LogicalName), Ref)) {
    bump(Misses);
    return Lookup::Missing;
  }
  while (!Ref.empty() && (Ref.back() == '\n' || Ref.back() == '\r'))
    Ref.pop_back();
  std::string Path = objectPath(Ref);
  struct stat St;
  if (Ref.empty() || faultInjector().shouldFail("store.read.object") ||
      ::stat(Path.c_str(), &St) != 0) {
    bump(Misses);
    return Lookup::Missing;
  }
  std::string Bytes;
  if (uint64_t(St.st_size) > MaxObjectBytes || !readFile(Path, Bytes) ||
      contentKey(Bytes) != Ref) {
    bump(IntegrityFailures);
    if (quarantine(Ref))
      bump(Quarantined);
    return Lookup::Rejected;
  }
  bump(Loads);
  BytesOut = std::move(Bytes);
  return Lookup::Found;
}

bool ContentStore::quarantine(const std::string &Key) {
  return ensureDir(Root + "/quarantine") &&
         std::rename(objectPath(Key).c_str(),
                     quarantinePath(Key + ".blob").c_str()) == 0;
}

ContentStore::ScrubReport ContentStore::scrub() {
  ScrubReport R;
  bump(ScrubRuns);
  if (!dirExists(Root))
    return R;

  // Pass 1: objects. Sweep temp litter, re-hash every blob, move
  // anything that fails verification aside under quarantine/ (kept,
  // not deleted — the bytes are evidence of what went wrong).
  std::string ObjDir = Root + "/objects";
  std::vector<std::string> Names;
  if (listDir(ObjDir, Names)) {
    for (const std::string &Name : Names) {
      std::string Path = ObjDir + "/" + Name;
      if (isTempFile(Name)) {
        if (std::remove(Path.c_str()) == 0)
          ++R.TmpSwept;
        else
          R.Ok = false;
        continue;
      }
      if (!hasSuffix(Name, ".blob"))
        continue;
      ++R.ObjectsChecked;
      std::string Key = Name.substr(0, Name.size() - 5);
      std::string Bytes;
      if (readFile(Path, Bytes) && contentKey(Bytes) == Key)
        continue;
      if (quarantine(Key))
        ++R.Quarantined;
      else
        R.Ok = false;
    }
  }

  // Pass 2: refs, after objects so a ref to a just-quarantined blob is
  // seen as dangling and dropped — the next get() is a clean miss.
  std::string RefDir = Root + "/refs";
  if (listDir(RefDir, Names)) {
    for (const std::string &Name : Names) {
      std::string Path = RefDir + "/" + Name;
      if (isTempFile(Name)) {
        if (std::remove(Path.c_str()) == 0)
          ++R.TmpSwept;
        else
          R.Ok = false;
        continue;
      }
      if (!hasSuffix(Name, ".ref"))
        continue;
      ++R.RefsChecked;
      std::string Ref;
      bool Readable = readFile(Path, Ref);
      while (!Ref.empty() && (Ref.back() == '\n' || Ref.back() == '\r'))
        Ref.pop_back();
      if (Readable && !Ref.empty() && fileExists(objectPath(Ref)))
        continue;
      if (std::remove(Path.c_str()) == 0)
        ++R.DanglingDropped;
      else
        R.Ok = false;
    }
  }

  bump(TmpSwept, R.TmpSwept);
  bump(Quarantined, R.Quarantined);
  bump(DanglingDropped, R.DanglingDropped);
  if (!R.Ok)
    bump(Errors);
  return R;
}

const char *const ContentStore::StatKeys[NumStats] = {
#define IPCP_STORE_STAT(Id, Key) Key,
#include "support/StoreStats.def"
#undef IPCP_STORE_STAT
};

ContentStore::Stats ContentStore::stats() const {
  Stats S;
  for (unsigned I = 0; I != NumStats; ++I)
    S[I] = Counters[I].load(std::memory_order_relaxed);
  return S;
}

} // namespace ipcp
