"""The canonical catalog of the 491 monitored API names.

The paper's feature vector has one entry per monitored Windows API call
(Section II-A).  Table III shows an excerpt of the catalog — entries 475 to
484 — revealing two properties we reproduce exactly:

* names are lower-cased and alphabetically ordered,
* index 475 is ``waitmessage`` and index 484 is ``writeprofilestringa``.

The full list is not published, so :func:`build_catalog` assembles a
491-name catalog from a large base list of real Windows API names (kernel32,
user32, advapi32, gdi32, ws2_32, wininet, shell32, ...), padded with the
standard ``a``/``w``/``ex`` API-variant suffixes when needed, under the
constraint that the Table III excerpt lands at the published indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.config import N_FEATURES
from repro.exceptions import ConfigurationError

#: Table III of the paper: catalog entries 475-484 (0-based), verbatim.
TABLE_III_EXCERPT: Tuple[str, ...] = (
    "waitmessage",
    "windowfromdc",
    "winexec",
    "writeconsolea",
    "writeconsolew",
    "writefile",
    "writeprivateprofilestringa",
    "writeprivateprofilestringw",
    "writeprocessmemory",
    "writeprofilestringa",
)

#: Index of the first excerpt entry in the catalog (paper Table III).
TABLE_III_START_INDEX = 475

#: Entries that close the catalog after the excerpt (indices 485-490).
_CATALOG_TAIL: Tuple[str, ...] = (
    "writeprofilestringw",
    "wsacleanup",
    "wsaconnect",
    "wsarecv",
    "wsasend",
    "wsastartup",
)

#: Base list of real Windows API names (lower-cased).  Only names that sort
#: strictly before ``waitmessage`` are eligible for the head of the catalog;
#: the builder filters and, if necessary, extends this list with standard
#: ``a``/``w``/``ex`` variants to reach the required 475 head entries.
_BASE_API_NAMES: Tuple[str, ...] = (
    # kernel32 — processes, threads, memory, modules
    "createprocessa", "createprocessw", "createprocessasusera", "createprocessasuserw",
    "createthread", "createremotethread", "exitprocess", "exitthread",
    "terminateprocess", "terminatethread", "openprocess", "openthread",
    "getcurrentprocess", "getcurrentprocessid", "getcurrentthread", "getcurrentthreadid",
    "getexitcodeprocess", "getexitcodethread", "resumethread", "suspendthread",
    "virtualalloc", "virtualallocex", "virtualfree", "virtualfreeex",
    "virtualprotect", "virtualprotectex", "virtualquery", "virtualqueryex",
    "heapalloc", "heapcreate", "heapdestroy", "heapfree", "heaprealloc", "heapsize",
    "globalalloc", "globalfree", "globallock", "globalunlock", "globalmemorystatus",
    "globalmemorystatusex", "localalloc", "localfree", "locallock", "localunlock",
    "readprocessmemory", "loadlibrarya", "loadlibraryw", "loadlibraryexa", "loadlibraryexw",
    "freelibrary", "getmodulehandlea", "getmodulehandlew", "getmodulehandleexa",
    "getmodulehandleexw", "getmodulefilenamea", "getmodulefilenamew", "getprocaddress",
    "createtoolhelp32snapshot", "process32first", "process32firstw", "process32next",
    "process32nextw", "thread32first", "thread32next", "module32first", "module32next",
    "queueuserapc", "setthreadcontext", "getthreadcontext", "setthreadpriority",
    "getthreadpriority", "setpriorityclass", "getpriorityclass", "switchtothread",
    "flushinstructioncache", "iswow64process", "getnativesysteminfo", "getsysteminfo",
    # kernel32 — files and directories
    "createfilea", "createfilew", "readfile", "readfileex", "writefileex",
    "deletefilea", "deletefilew", "copyfilea", "copyfilew", "copyfileexa", "copyfileexw",
    "movefilea", "movefilew", "movefileexa", "movefileexw", "getfilesize", "getfilesizeex",
    "getfiletype", "getfiletime", "setfiletime", "getfileattributesa", "getfileattributesw",
    "setfileattributesa", "setfileattributesw", "setfilepointer", "setfilepointerex",
    "setendoffile", "flushfilebuffers", "lockfile", "unlockfile", "createdirectorya",
    "createdirectoryw", "removedirectorya", "removedirectoryw", "getcurrentdirectorya",
    "getcurrentdirectoryw", "setcurrentdirectorya", "setcurrentdirectoryw",
    "gettemppatha", "gettemppathw", "gettempfilenamea", "gettempfilenamew",
    "getsystemdirectorya", "getsystemdirectoryw", "getwindowsdirectorya",
    "getwindowsdirectoryw", "findfirstfilea", "findfirstfilew", "findnextfilea",
    "findnextfilew", "findclose", "getlogicaldrives", "getlogicaldrivestringsa",
    "getlogicaldrivestringsw", "getdrivetypea", "getdrivetypew", "getdiskfreespacea",
    "getdiskfreespacew", "getdiskfreespaceexa", "getdiskfreespaceexw",
    "getfullpathnamea", "getfullpathnamew", "getlongpathnamea", "getlongpathnamew",
    "getshortpathnamea", "getshortpathnamew", "searchpatha", "searchpathw",
    "createfilemappinga", "createfilemappingw", "mapviewoffile", "mapviewoffileex",
    "unmapviewoffile", "openfilemappinga", "openfilemappingw",
    # kernel32 — synchronisation, pipes, console, misc
    "createmutexa", "createmutexw", "openmutexa", "openmutexw", "releasemutex",
    "createeventa", "createeventw", "openeventa", "openeventw", "setevent", "resetevent",
    "createsemaphorea", "createsemaphorew", "releasesemaphore", "waitforsingleobject",
    "waitformultipleobjects", "createnamedpipea", "createnamedpipew", "connectnamedpipe",
    "disconnectnamedpipe", "peeknamedpipe", "createpipe", "transactnamedpipe",
    "callnamedpipea", "callnamedpipew", "getstdhandle", "setstdhandle",
    "allocconsole", "freeconsole", "getconsolewindow", "setconsoletitlea",
    "setconsoletitlew", "readconsolea", "readconsolew", "getconsolemode", "setconsolemode",
    "getstartupinfoa", "getstartupinfow", "getcommandlinea", "getcommandlinew",
    "getenvironmentvariablea", "getenvironmentvariablew", "setenvironmentvariablea",
    "setenvironmentvariablew", "getenvironmentstringsa", "getenvironmentstringsw",
    "freeenvironmentstringsa", "freeenvironmentstringsw", "expandenvironmentstringsa",
    "expandenvironmentstringsw", "getcomputernamea", "getcomputernamew",
    "getversion", "getversionexa", "getversionexw", "getsystemtime", "getlocaltime",
    "getsystemtimeasfiletime", "gettickcount", "gettickcount64", "queryperformancecounter",
    "queryperformancefrequency", "sleep", "sleepex", "getlasterror", "setlasterror",
    "outputdebugstringa", "outputdebugstringw", "isdebuggerpresent",
    "checkremotedebuggerpresent", "debugactiveprocess", "debugbreak",
    "getcpinfo", "getacp", "getoemcp", "multibytetowidechar", "widechartomultibyte",
    "lstrcata", "lstrcatw", "lstrcmpa", "lstrcmpw", "lstrcmpia", "lstrcmpiw",
    "lstrcpya", "lstrcpyw", "lstrcpyna", "lstrcpynw", "lstrlena", "lstrlenw",
    "interlockedincrement", "interlockeddecrement", "interlockedexchange",
    "interlockedcompareexchange", "initializecriticalsection", "deletecriticalsection",
    "entercriticalsection", "leavecriticalsection", "tlsalloc", "tlsfree",
    "tlsgetvalue", "tlssetvalue", "flsalloc", "flsfree", "flsgetvalue", "flssetvalue",
    "duplicatehandle", "closehandle", "createjobobjecta", "createjobobjectw",
    "assignprocesstojobobject", "setinformationjobobject", "getbinarytypea",
    "getbinarytypew", "beginupdateresourcea", "beginupdateresourcew",
    "endupdateresourcea", "endupdateresourcew", "updateresourcea", "updateresourcew",
    "findresourcea", "findresourcew", "loadresource", "lockresource", "sizeofresource",
    "setunhandledexceptionfilter", "unhandledexceptionfilter", "raiseexception",
    "addvectoredexceptionhandler", "removevectoredexceptionhandler",
    "deviceiocontrol", "definedosdevicea", "definedosdevicew", "querydosdevicea",
    "querydosdevicew", "getprofileinta", "getprofileintw", "getprofilestringa",
    "getprofilestringw", "getprivateprofileinta", "getprivateprofileintw",
    "getprivateprofilestringa", "getprivateprofilestringw", "getprivateprofilesectiona",
    "getprivateprofilesectionw", "getcurrentconsolefont", "setprocessdeppolicy",
    "getprocessheap", "getprocessheaps", "getprocesstimes", "getprocessworkingsetsize",
    "setprocessworkingsetsize", "getthreadtimes", "createwaitabletimera",
    "createwaitabletimerw", "setwaitabletimer", "cancelwaitabletimer",
    # user32 — windows, messages, input, hooks
    "createwindowexa", "createwindowexw", "destroywindow", "showwindow", "updatewindow",
    "findwindowa", "findwindoww", "findwindowexa", "findwindowexw", "getforegroundwindow",
    "setforegroundwindow", "getdesktopwindow", "getwindowtexta", "getwindowtextw",
    "setwindowtexta", "setwindowtextw", "getwindowrect", "setwindowpos", "movewindow",
    "getclassnamea", "getclassnamew", "registerclassa", "registerclassw",
    "registerclassexa", "registerclassexw", "defwindowproca", "defwindowprocw",
    "getmessagea", "getmessagew", "peekmessagea", "peekmessagew", "postmessagea",
    "postmessagew", "sendmessagea", "sendmessagew", "sendmessagetimeouta",
    "sendmessagetimeoutw", "dispatchmessagea", "dispatchmessagew", "translatemessage",
    "postquitmessage", "postthreadmessagea", "postthreadmessagew",
    "setwindowshookexa", "setwindowshookexw", "unhookwindowshookex", "callnexthookex",
    "getasynckeystate", "getkeystate", "getkeyboardstate", "getkeyboardlayout",
    "mapvirtualkeya", "mapvirtualkeyw", "keybd_event", "mouse_event", "sendinput",
    "getcursorpos", "setcursorpos", "showcursor", "setcapture", "releasecapture",
    "clipcursor", "attachthreadinput", "blockinput", "enablewindow", "iswindowvisible",
    "iswindowenabled", "getwindowthreadprocessid", "getwindowlonga", "getwindowlongw",
    "setwindowlonga", "setwindowlongw", "getsystemmetrics", "systemparametersinfoa",
    "systemparametersinfow", "messageboxa", "messageboxw", "messagebeep",
    "loadicona", "loadiconw", "loadcursora", "loadcursorw", "loadimagea", "loadimagew",
    "destroyicon", "destroycursor", "drawicon", "drawiconex", "getdc", "getwindowdc",
    "releasedc", "begindeferwindowpos", "enddeferwindowpos", "openclipboard",
    "closeclipboard", "emptyclipboard", "getclipboarddata", "setclipboarddata",
    "registerhotkey", "unregisterhotkey", "exitwindowsex", "lockworkstation",
    "getuserobjectinformationa", "getuserobjectinformationw", "openinputdesktop",
    "enumwindows", "enumchildwindows", "enumdesktopwindows", "getwindow",
    "getparent", "setparent", "gettopwindow", "getactivewindow", "setactivewindow",
    "flashwindow", "flashwindowex", "printwindow",
    # gdi32
    "bitblt", "stretchblt", "patblt", "createcompatibledc", "createcompatiblebitmap",
    "createbitmap", "createdibsection", "deletedc", "deleteobject", "selectobject",
    "getdibits", "setdibits", "getpixel", "setpixel", "textouta", "textoutw",
    "createfonta", "createfontw", "createfontindirecta", "createfontindirectw",
    "getstockobject", "createsolidbrush", "createpen", "rectangle", "ellipse",
    "getdevicecaps", "getobjecta", "getobjectw", "settextcolor", "setbkcolor", "setbkmode",
    # advapi32 — registry, services, tokens, crypto
    "regopenkeya", "regopenkeyw", "regopenkeyexa", "regopenkeyexw", "regcreatekeya",
    "regcreatekeyw", "regcreatekeyexa", "regcreatekeyexw", "regclosekey",
    "regdeletekeya", "regdeletekeyw", "regdeletevaluea", "regdeletevaluew",
    "regqueryvaluea", "regqueryvaluew", "regqueryvalueexa", "regqueryvalueexw",
    "regsetvaluea", "regsetvaluew", "regsetvalueexa", "regsetvalueexw",
    "regenumkeya", "regenumkeyw", "regenumkeyexa", "regenumkeyexw", "regenumvaluea",
    "regenumvaluew", "regqueryinfokeya", "regqueryinfokeyw", "regsavekeya", "regsavekeyw",
    "regloadkeya", "regloadkeyw", "regflushkey", "regconnectregistrya", "regconnectregistryw",
    "openscmanagera", "openscmanagerw", "openservicea", "openservicew",
    "createservicea", "createservicew", "deleteservice", "startservicea", "startservicew",
    "controlservice", "queryservicestatus", "queryservicestatusex", "queryserviceconfiga",
    "queryserviceconfigw", "changeserviceconfiga", "changeserviceconfigw",
    "enumservicesstatusa", "enumservicesstatusw", "closeservicehandle",
    "openprocesstoken", "openthreadtoken", "adjusttokenprivileges", "lookupprivilegevaluea",
    "lookupprivilegevaluew", "gettokeninformation", "settokeninformation",
    "duplicatetoken", "duplicatetokenex", "impersonateloggedonuser", "reverttoself",
    "logonusera", "logonuserw", "getusernamea", "getusernamew", "lookupaccountsida",
    "lookupaccountsidw", "lookupaccountnamea", "lookupaccountnamew",
    "initializesecuritydescriptor", "setsecuritydescriptordacl", "getsecurityinfo",
    "setsecurityinfo", "cryptacquirecontexta", "cryptacquirecontextw", "cryptreleasecontext",
    "cryptcreatehash", "cryptdestroyhash", "crypthashdata", "cryptgethashparam",
    "cryptderivekey", "cryptgenkey", "cryptdestroykey", "cryptencrypt", "cryptdecrypt",
    "cryptexportkey", "cryptimportkey", "cryptgenrandom", "cryptsignhasha", "cryptsignhashw",
    "cryptverifysignaturea", "cryptverifysignaturew", "cryptprotectdata",
    "cryptunprotectdata", "allocateandinitializesid", "freesid", "checktokenmembership",
    "createprocesswithlogonw", "createprocesswithtokenw", "eventwrite", "regnotifychangekeyvalue",
    # ws2_32 / wsock32 — networking
    "socket", "closesocket", "connect", "bind", "listen", "accept", "send", "sendto",
    "recv", "recvfrom", "select", "shutdown", "ioctlsocket", "setsockopt", "getsockopt",
    "gethostbyname", "gethostbyaddr", "gethostname", "getaddrinfo", "getnameinfo",
    "freeaddrinfo", "inet_addr", "inet_ntoa", "htons", "htonl", "ntohs", "ntohl",
    "getpeername", "getsockname",
    # wininet / winhttp / urlmon
    "internetopena", "internetopenw", "internetopenurla", "internetopenurlw",
    "internetconnecta", "internetconnectw", "internetreadfile", "internetwritefile",
    "internetclosehandle", "internetsetoptiona", "internetsetoptionw",
    "internetqueryoptiona", "internetqueryoptionw", "internetgetconnectedstate",
    "internetcheckconnectiona", "internetcheckconnectionw", "internetcrackurla",
    "internetcrackurlw", "httpopenrequesta", "httpopenrequestw", "httpsendrequesta",
    "httpsendrequestw", "httpqueryinfoa", "httpqueryinfow", "httpaddrequestheadersa",
    "httpaddrequestheadersw", "ftpgetfilea", "ftpgetfilew", "ftpputfilea", "ftpputfilew",
    "ftpopenfilea", "ftpopenfilew", "urldownloadtofilea", "urldownloadtofilew",
    "urldownloadtocachefilea", "urldownloadtocachefilew",
    # shell32 / shlwapi / ole32
    "shellexecutea", "shellexecutew", "shellexecuteexa", "shellexecuteexw",
    "shgetfolderpatha", "shgetfolderpathw", "shgetspecialfolderpatha",
    "shgetspecialfolderpathw", "shgetknownfolderpath", "shfileoperationa",
    "shfileoperationw", "shcreatedirectoryexa", "shcreatedirectoryexw",
    "shellnotifyicona", "shellnotifyiconw", "extracticona", "extracticonw",
    "pathfileexistsa", "pathfileexistsw", "pathappenda", "pathappendw",
    "pathcombinea", "pathcombinew", "pathfindextensiona", "pathfindextensionw",
    "pathfindfilenamea", "pathfindfilenamew", "strstra", "strstrw", "strstria", "strstriw",
    "coinitialize", "coinitializeex", "couninitialize", "cocreateinstance",
    "cocreateinstanceex", "cogetclassobject", "cosetproxyblanket", "cotaskmemalloc",
    "cotaskmemfree", "olerun", "oleinitialize", "oleuninitialize",
    "createstreamonhglobal", "getrunningobjecttable",
    # ntdll
    "ntallocatevirtualmemory", "ntprotectvirtualmemory", "ntreadvirtualmemory",
    "ntwritevirtualmemory", "ntcreatefile", "ntopenfile", "ntreadfile", "ntwritefile",
    "ntclose", "ntcreatesection", "ntmapviewofsection", "ntunmapviewofsection",
    "ntopenprocess", "ntterminateprocess", "ntcreatethreadex", "ntresumethread",
    "ntsuspendthread", "ntqueryinformationprocess", "ntsetinformationprocess",
    "ntqueryinformationthread", "ntquerysysteminformation", "ntquerydirectoryfile",
    "ntdelayexecution", "ntcreatekey", "ntopenkey", "ntsetvaluekey", "ntquerryvaluekey",
    "ntenumeratekey", "ntdeletekey", "ntloaddriver", "ntunloaddriver",
    "rtlcreateuserthread", "rtlmovememory", "rtlzeromemory", "rtlcopymemory",
    "rtladdvectoredexceptionhandler", "rtlgetversion", "ldrloaddll", "ldrgetprocedureaddress",
    # psapi / toolhelp / version / imagehlp
    "enumprocesses", "enumprocessmodules", "enumprocessmodulesex", "getmodulebasenamea",
    "getmodulebasenamew", "getmodulefilenameexa", "getmodulefilenameexw",
    "getprocessimagefilenamea", "getprocessimagefilenamew", "getprocessmemoryinfo",
    "getfileversioninfoa", "getfileversioninfow", "getfileversioninfosizea",
    "getfileversioninfosizew", "verqueryvaluea", "verqueryvaluew",
    "imagehlpchecksummappedfile", "mapfileandchecksuma", "mapfileandchecksumw",
    "checksummappedfile", "imagentheader", "imagedirectoryentrytodata",
    # crt-style / miscellaneous monitored calls
    "memcpy", "memset", "memmove", "malloc", "calloc", "realloc", "free", "strcpy",
    "strncpy", "strcat", "strncat", "strcmp", "strncmp", "strlen", "sprintf", "swprintf",
    "fopen", "fclose", "fread", "fwrite", "fprintf", "fscanf", "fseek", "ftell",
    "system", "getpwnam", "rand", "srand", "time", "clock", "atexit", "signal", "abort",
    "setjmp", "longjmp", "getenv", "putenv", "tmpfile", "tmpnam", "remove", "rename",
    # user32/misc that sort after most but before "wait"
    "validaterect", "valuename", "vkkeyscana", "vkkeyscanw", "verifyversioninfoa",
    "verifyversioninfow", "vprintf", "queryfullprocessimagenamea",
    "queryfullprocessimagenamew", "timegettime", "timesetevent", "timebeginperiod",
    "timeendperiod", "getcharwidtha", "getcharwidthw", "gettextmetricsa", "gettextmetricsw",
    "getnetworkparams", "getadaptersinfo", "getadaptersaddresses", "icmpcreatefile",
    "icmpsendecho", "netshareenum", "netuseradd", "netuserenum", "netusergetinfo",
    "netlocalgroupaddmembers", "netapibufferfree", "dnsquery_a", "dnsquery_w",
    "certopenstore", "certclosestore", "certfindcertificateinstore",
    "certgetcertificatechain", "certverifycertificatechainpolicy",
    "bcryptopenalgorithmprovider", "bcryptclosealgorithmprovider", "bcryptgenrandom",
    "bcryptencrypt", "bcryptdecrypt", "bcrypthashdata", "bcryptcreatehash",
    "ncryptopenstorageprovider", "ncryptopenkey", "ncryptencrypt", "ncryptdecrypt",
    "wnetaddconnection2a", "wnetaddconnection2w", "wnetopenenuma", "wnetopenenumw",
    "wnetenumresourcea", "wnetenumresourcew", "wnetcancelconnection2a",
    "wnetcancelconnection2w", "waveoutopen", "waveoutwrite", "waveinopen",
    "playsounda", "playsoundw", "mcisendstringa", "mcisendstringw",
    "vfwprintf", "ualstrcpya",
)


@dataclass(frozen=True)
class ApiCatalog:
    """Immutable, ordered catalog mapping API names to feature indices."""

    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(set(self.names)):
            raise ConfigurationError("catalog contains duplicate API names")
        if list(self.names) != sorted(self.names):
            raise ConfigurationError("catalog names must be alphabetically sorted")
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(self.names)})

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._index

    def __iter__(self):
        return iter(self.names)

    def index_of(self, name: str) -> int:
        """Return the feature index of ``name`` (case-insensitive).

        Raises
        ------
        KeyError
            If the API is not monitored (not part of the catalog).
        """
        key = name.lower()
        if key not in self._index:
            raise KeyError(f"API {name!r} is not in the monitored catalog")
        return self._index[key]

    def name_of(self, index: int) -> str:
        """Return the API name at feature ``index``."""
        return self.names[index]

    def monitored(self, name: str) -> bool:
        """Whether ``name`` is a monitored API."""
        return name.lower() in self._index

    def indices_of(self, names: Iterable[str]) -> List[int]:
        """Feature indices for several API names (unknown names are skipped)."""
        return [self._index[n.lower()] for n in names if n.lower() in self._index]

    def excerpt(self, start: int, stop: int) -> List[Tuple[int, str]]:
        """Return ``(index, name)`` pairs for ``start <= index < stop``.

        ``catalog.excerpt(475, 485)`` reproduces Table III.
        """
        return [(i, self.names[i]) for i in range(start, min(stop, len(self.names)))]


def _head_candidates() -> List[str]:
    """All candidate head names: base names (plus variants) < 'waitmessage'."""
    first_excerpt = TABLE_III_EXCERPT[0]
    seen = set(TABLE_III_EXCERPT) | set(_CATALOG_TAIL)
    candidates: List[str] = []
    for name in _BASE_API_NAMES:
        lowered = name.lower()
        if lowered in seen or lowered >= first_excerpt:
            continue
        seen.add(lowered)
        candidates.append(lowered)
    # If the base list were ever too small, extend it with the standard
    # Windows "ex"-variant naming convention.  This is deterministic and
    # keeps every generated name a plausible API identifier.
    for suffix in ("ex", "exa", "exw", "2"):
        if len(candidates) >= 2 * N_FEATURES:
            break
        for name in list(candidates):
            variant = name + suffix
            if variant in seen or variant >= first_excerpt:
                continue
            seen.add(variant)
            candidates.append(variant)
    return sorted(candidates)


def build_catalog(n_features: int = N_FEATURES,
                  must_include: Iterable[str] = ()) -> ApiCatalog:
    """Build the canonical catalog of ``n_features`` monitored API names.

    The returned catalog is alphabetically ordered, contains the Table III
    excerpt verbatim at indices 475-484 (when ``n_features`` is the paper's
    491), and is deterministic across runs.

    ``must_include`` names (lower-cased) are guaranteed a slot as long as
    they sort strictly before the Table III excerpt or already belong to the
    excerpt/tail; names that would break the excerpt's contiguity are
    silently dropped, mirroring how an instrumentation catalog only hooks a
    fixed set of APIs.
    """
    must_keep = {name.lower() for name in must_include}
    if n_features != N_FEATURES:
        # Reduced catalogs (for toy examples) keep the head structure but do
        # not pin the Table III alignment, which only exists at 491 features.
        candidates = _head_candidates()
        names = sorted(candidates + list(TABLE_III_EXCERPT) + list(_CATALOG_TAIL))
        if n_features > len(names):
            raise ConfigurationError(
                f"cannot build a catalog of {n_features} names; only {len(names)} available"
            )
        step = len(names) / n_features
        picked = sorted({names[int(i * step)] for i in range(n_features)})
        index = 0
        while len(picked) < n_features:
            if names[index] not in picked:
                picked.append(names[index])
            index += 1
        return ApiCatalog(tuple(sorted(picked)))

    head_needed = TABLE_III_START_INDEX
    tail_needed = n_features - head_needed - len(TABLE_III_EXCERPT)
    if tail_needed != len(_CATALOG_TAIL):
        raise ConfigurationError(
            f"catalog tail must contain {tail_needed} names, got {len(_CATALOG_TAIL)}"
        )
    first_excerpt = TABLE_III_EXCERPT[0]
    candidates = _head_candidates()
    candidate_set = set(candidates)
    extra_must_keep = sorted(name for name in must_keep
                             if name < first_excerpt and name not in candidate_set)
    candidates = sorted(candidates + extra_must_keep)
    if len(candidates) < head_needed:
        raise ConfigurationError(
            f"need {head_needed} head API names but only {len(candidates)} are available"
        )
    forced = [name for name in candidates if name in must_keep]
    if len(forced) > head_needed:
        raise ConfigurationError(
            f"must_include forces {len(forced)} head names but only {head_needed} fit"
        )
    # Deterministically thin the optional candidates to fill the remaining
    # head slots while preserving alphabetical spread.
    optional = [name for name in candidates if name not in must_keep]
    optional_needed = head_needed - len(forced)
    positions = np.linspace(0, len(optional) - 1, optional_needed) if optional_needed else []
    picked_indices = sorted({int(round(p)) for p in positions})
    cursor = 0
    while len(picked_indices) < optional_needed:
        if cursor not in picked_indices:
            picked_indices.append(cursor)
            picked_indices.sort()
        cursor += 1
    head = sorted(forced + [optional[i] for i in sorted(picked_indices)[:optional_needed]])
    names = tuple(head) + TABLE_III_EXCERPT + _CATALOG_TAIL
    return ApiCatalog(names)


_DEFAULT_CATALOG: ApiCatalog | None = None


def _behavioural_must_include() -> set[str]:
    """Every API the synthetic substrate actually exercises.

    The default catalog guarantees slots for the APIs used by the behaviour
    profiles and by the sandbox's OS preambles, so that the synthetic
    samples' behaviour is fully visible to the detector (a real monitored-API
    list would likewise be chosen to cover the behaviours of interest).
    """
    from repro.apilog.behavior_profiles import default_profile_library
    from repro.apilog.sandbox import _OS_PREAMBLE

    apis = {usage.api for profile in default_profile_library()
            for group in profile.groups for usage in group.usages}
    apis.update(api for preamble in _OS_PREAMBLE.values() for api, _ in preamble)
    return apis


def default_catalog() -> ApiCatalog:
    """Return the module-level cached 491-API catalog."""
    global _DEFAULT_CATALOG
    if _DEFAULT_CATALOG is None:
        _DEFAULT_CATALOG = build_catalog(must_include=_behavioural_must_include())
    return _DEFAULT_CATALOG
