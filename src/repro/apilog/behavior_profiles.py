"""Parametric behaviour profiles for clean software and malware families.

The proprietary corpus cannot be redistributed, so the synthetic substrate
describes each *family* of samples (a benign application category or a
malware family) as a :class:`BehaviorProfile`: a set of API-usage groups,
each with an activation probability and a per-API count distribution.
Sampling a profile yields the per-API raw call counts of one concrete sample
— exactly the quantity the feature extractor computes from a real log — and
the sandbox turns the same counts into a Table II-style log when the full
end-to-end path is exercised.

The default library (:func:`default_profile_library`) encodes well-known
behavioural differences between goodware and malware (process injection,
registry persistence, network beaconing, anti-debugging, mass file
encryption, keylogging, ...) with enough overlap that a trained detector
lands near the paper's operating point (TNR ~0.96, TPR ~0.88 on a shifted
test distribution) rather than at a trivially perfect separation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.config import CLASS_CLEAN, CLASS_MALWARE
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ApiUsage:
    """Usage statistics of one API inside a behaviour group.

    ``mean_count`` is the expected number of calls when the group is active;
    counts are drawn from a negative-binomial-like mixture so that heavy
    tails (e.g. a packer calling ``virtualalloc`` hundreds of times) occur.
    """

    api: str
    mean_count: float
    dispersion: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_count <= 0:
            raise ConfigurationError(f"mean_count must be positive for {self.api!r}")
        if self.dispersion <= 0:
            raise ConfigurationError(f"dispersion must be positive for {self.api!r}")


@dataclass(frozen=True)
class BehaviorGroup:
    """A coherent group of API calls that activate together.

    Examples: "startup runtime", "registry persistence", "process injection".
    """

    name: str
    activation_probability: float
    usages: Tuple[ApiUsage, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.activation_probability <= 1.0:
            raise ConfigurationError(
                f"activation_probability must be in [0, 1] for group {self.name!r}"
            )
        if not self.usages:
            raise ConfigurationError(f"group {self.name!r} has no API usages")


@dataclass(frozen=True)
class BehaviorProfile:
    """A family of samples: a label plus a set of behaviour groups."""

    name: str
    label: int
    groups: Tuple[BehaviorGroup, ...]
    #: Families only present in the independent test corpus model the
    #: distribution shift between the training data (McAfee Labs, Jan-Feb
    #: 2018) and the test data (VirusTotal).
    novel: bool = False

    def __post_init__(self) -> None:
        if self.label not in (CLASS_CLEAN, CLASS_MALWARE):
            raise ConfigurationError(f"label must be 0 or 1, got {self.label}")
        if not self.groups:
            raise ConfigurationError(f"profile {self.name!r} has no behaviour groups")

    def api_names(self) -> List[str]:
        """Every API referenced by the profile (with duplicates removed)."""
        seen: Dict[str, None] = {}
        for group in self.groups:
            for usage in group.usages:
                seen.setdefault(usage.api, None)
        return list(seen)

    def sample_counts(self, rng: np.random.Generator,
                      intensity: float = 1.0) -> Dict[str, int]:
        """Draw the raw API-call counts of one concrete sample.

        Parameters
        ----------
        rng:
            Source of randomness.
        intensity:
            Global multiplier on the expected counts (the sandbox uses this
            to model OS-dependent runtime differences).
        """
        if intensity <= 0:
            raise ConfigurationError(f"intensity must be positive, got {intensity}")
        counts: Dict[str, int] = {}
        for group in self.groups:
            if rng.random() > group.activation_probability:
                continue
            for usage in group.usages:
                mean = usage.mean_count * intensity
                # Gamma-Poisson mixture == negative binomial: heavy-tailed
                # counts with controllable dispersion.
                rate = rng.gamma(shape=usage.dispersion, scale=mean / usage.dispersion)
                count = int(rng.poisson(rate))
                if count > 0:
                    counts[usage.api] = counts.get(usage.api, 0) + count
        return counts


def _usages(entries: Mapping[str, float], dispersion: float = 1.5) -> Tuple[ApiUsage, ...]:
    """Shorthand to build a tuple of :class:`ApiUsage` from ``{api: mean}``."""
    return tuple(ApiUsage(api=api, mean_count=mean, dispersion=dispersion)
                 for api, mean in entries.items())


# --------------------------------------------------------------------------- #
# Shared behaviour groups
# --------------------------------------------------------------------------- #
def _runtime_startup_group(probability: float = 1.0) -> BehaviorGroup:
    """The C-runtime startup sequence visible in Table II."""
    return BehaviorGroup(
        name="runtime_startup",
        activation_probability=probability,
        usages=_usages({
            "getstartupinfow": 2.0,
            "getfiletype": 2.5,
            "getmodulehandlew": 3.0,
            "getprocaddress": 12.0,
            "getstdhandle": 2.0,
            "freeenvironmentstringsw": 1.2,
            "getcpinfo": 1.5,
            "getcommandlinea": 1.2,
            "getcommandlinew": 1.2,
            "heapalloc": 25.0,
            "heapfree": 20.0,
            "tlsgetvalue": 8.0,
            "flsalloc": 1.1,
            "getlasterror": 6.0,
            "multibytetowidechar": 4.0,
            "initializecriticalsection": 3.0,
            "entercriticalsection": 15.0,
            "leavecriticalsection": 15.0,
            "closehandle": 8.0,
        }),
    )


def _gui_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="gui",
        activation_probability=probability,
        usages=_usages({
            "createwindowexw": 4.0,
            "registerclassexw": 2.0,
            "showwindow": 3.0,
            "updatewindow": 2.0,
            "getmessagew": 30.0,
            "dispatchmessagew": 28.0,
            "translatemessage": 28.0,
            "defwindowprocw": 20.0,
            "loadiconw": 1.5,
            "loadcursorw": 1.5,
            "getdc": 3.0,
            "releasedc": 3.0,
            "bitblt": 4.0,
            "selectobject": 6.0,
            "deleteobject": 5.0,
            "getsystemmetrics": 4.0,
            "messageboxw": 0.8,
            "peekmessagew": 10.0,
            "waitmessage": 2.0,
            "windowfromdc": 0.7,
        }),
    )


def _file_io_group(probability: float, scale: float = 1.0) -> BehaviorGroup:
    return BehaviorGroup(
        name="file_io",
        activation_probability=probability,
        usages=_usages({
            "createfilew": 6.0 * scale,
            "readfile": 18.0 * scale,
            "writefile": 10.0 * scale,
            "setfilepointer": 8.0 * scale,
            "getfilesize": 3.0 * scale,
            "findfirstfilew": 2.5 * scale,
            "findnextfilew": 9.0 * scale,
            "findclose": 2.5 * scale,
            "getfileattributesw": 5.0 * scale,
            "deletefilew": 0.8 * scale,
            "copyfilew": 0.6 * scale,
            "flushfilebuffers": 1.0 * scale,
            "createdirectoryw": 0.8 * scale,
            "gettemppathw": 0.8 * scale,
        }),
    )


def _registry_read_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="registry_read",
        activation_probability=probability,
        usages=_usages({
            "regopenkeyexw": 6.0,
            "regqueryvalueexw": 10.0,
            "regclosekey": 6.0,
            "regenumkeyexw": 3.0,
            "regqueryinfokeyw": 2.0,
        }),
    )


def _network_client_group(probability: float, scale: float = 1.0) -> BehaviorGroup:
    return BehaviorGroup(
        name="network_client",
        activation_probability=probability,
        usages=_usages({
            "socket": 1.5 * scale,
            "connect": 1.5 * scale,
            "send": 4.0 * scale,
            "recv": 5.0 * scale,
            "closesocket": 1.5 * scale,
            "gethostbyname": 1.2 * scale,
            "getaddrinfo": 1.5 * scale,
            "internetopenw": 1.0 * scale,
            "internetconnectw": 1.2 * scale,
            "httpopenrequestw": 1.5 * scale,
            "httpsendrequestw": 1.5 * scale,
            "internetreadfile": 5.0 * scale,
            "internetclosehandle": 1.5 * scale,
        }),
    )


# --------------------------------------------------------------------------- #
# Malware-specific behaviour groups
# --------------------------------------------------------------------------- #
def _process_injection_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="process_injection",
        activation_probability=probability,
        usages=_usages({
            "openprocess": 2.5,
            "virtualallocex": 2.0,
            "writeprocessmemory": 3.5,
            "createremotethread": 1.5,
            "virtualprotectex": 1.5,
            "readprocessmemory": 2.0,
            "createtoolhelp32snapshot": 1.5,
            "process32firstw": 1.2,
            "process32nextw": 12.0,
            "queueuserapc": 0.8,
            "setthreadcontext": 0.7,
            "ntwritevirtualmemory": 1.5,
            "ntmapviewofsection": 0.9,
        }, dispersion=1.2),
    )


def _persistence_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="registry_persistence",
        activation_probability=probability,
        usages=_usages({
            "regcreatekeyexw": 2.5,
            "regsetvalueexw": 3.0,
            "regsetvalueexa": 1.5,
            "regclosekey": 3.0,
            "createservicew": 0.8,
            "openscmanagerw": 0.9,
            "startservicew": 0.7,
            "copyfilew": 1.5,
            "movefileexw": 1.0,
            "shgetspecialfolderpathw": 1.2,
            "writeprivateprofilestringa": 0.9,
            "writeprivateprofilestringw": 0.7,
        }, dispersion=1.2),
    )


def _beaconing_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="c2_beaconing",
        activation_probability=probability,
        usages=_usages({
            "internetopena": 1.2,
            "internetconnecta": 2.0,
            "httpopenrequesta": 3.0,
            "httpsendrequesta": 3.0,
            "internetreadfile": 6.0,
            "urldownloadtofilea": 1.0,
            "gethostbyname": 2.0,
            "socket": 2.0,
            "connect": 2.5,
            "send": 6.0,
            "recv": 6.0,
            "wsastartup": 1.1,
            "wsacleanup": 1.0,
            "sleep": 14.0,
            "gettickcount": 6.0,
        }, dispersion=1.2),
    )


def _anti_analysis_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="anti_analysis",
        activation_probability=probability,
        usages=_usages({
            "isdebuggerpresent": 2.0,
            "checkremotedebuggerpresent": 1.2,
            "gettickcount": 8.0,
            "queryperformancecounter": 3.0,
            "sleep": 10.0,
            "getsysteminfo": 1.5,
            "globalmemorystatusex": 1.2,
            "getmodulehandlea": 3.0,
            "outputdebugstringa": 1.0,
            "ntqueryinformationprocess": 1.5,
            "ntdelayexecution": 2.0,
        }, dispersion=1.2),
    )


def _self_unpacking_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="self_unpacking",
        activation_probability=probability,
        usages=_usages({
            "virtualalloc": 12.0,
            "virtualprotect": 8.0,
            "loadlibrarya": 5.0,
            "getprocaddress": 40.0,
            "virtualfree": 4.0,
            "rtlmovememory": 6.0,
            "ldrloaddll": 2.0,
            "ldrgetprocedureaddress": 8.0,
        }, dispersion=1.1),
    )


def _mass_encryption_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="mass_file_encryption",
        activation_probability=probability,
        usages=_usages({
            "findfirstfilew": 4.0,
            "findnextfilew": 80.0,
            "createfilew": 60.0,
            "readfile": 70.0,
            "writefile": 70.0,
            "movefileexw": 25.0,
            "deletefilew": 30.0,
            "cryptacquirecontextw": 1.2,
            "cryptgenkey": 1.0,
            "cryptencrypt": 60.0,
            "cryptgenrandom": 2.0,
            "getlogicaldrivestringsw": 1.2,
            "getdrivetypew": 4.0,
        }, dispersion=1.0),
    )


def _keylogging_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="keylogging",
        activation_probability=probability,
        usages=_usages({
            "setwindowshookexa": 1.2,
            "setwindowshookexw": 1.0,
            "getasynckeystate": 60.0,
            "getkeystate": 30.0,
            "getforegroundwindow": 12.0,
            "getwindowtextw": 10.0,
            "mapvirtualkeya": 8.0,
            "callnexthookex": 20.0,
            "attachthreadinput": 1.0,
            "openclipboard": 2.0,
            "getclipboarddata": 2.0,
        }, dispersion=1.2),
    )


def _credential_theft_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="credential_theft",
        activation_probability=probability,
        usages=_usages({
            "openprocesstoken": 1.5,
            "adjusttokenprivileges": 1.2,
            "lookupprivilegevaluew": 1.2,
            "cryptunprotectdata": 2.5,
            "regopenkeyexw": 5.0,
            "regqueryvalueexw": 8.0,
            "readprocessmemory": 4.0,
            "logonuserw": 0.6,
            "getusernamew": 1.0,
            "findfirstfilew": 3.0,
            "readfile": 8.0,
        }, dispersion=1.2),
    )


def _dropper_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="dropper",
        activation_probability=probability,
        usages=_usages({
            "gettemppathw": 1.5,
            "gettempfilenamew": 1.2,
            "createfilew": 3.0,
            "writefile": 5.0,
            "createprocessw": 1.5,
            "createprocessa": 0.8,
            "winexec": 0.9,
            "shellexecutea": 0.9,
            "shellexecutew": 0.8,
            "urldownloadtofilea": 1.2,
            "movefileexw": 1.0,
            "setfileattributesw": 1.2,
            "deletefilew": 1.0,
        }, dispersion=1.2),
    )


# --------------------------------------------------------------------------- #
# Clean-software-specific groups
# --------------------------------------------------------------------------- #
def _document_editing_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="document_editing",
        activation_probability=probability,
        usages=_usages({
            "createfilew": 8.0,
            "readfile": 25.0,
            "writefile": 12.0,
            "createfontindirectw": 3.0,
            "textoutw": 20.0,
            "gettextmetricsw": 4.0,
            "settextcolor": 5.0,
            "getprivateprofilestringw": 3.0,
            "writeprivateprofilestringw": 1.0,
            "getprofilestringw": 2.0,
            "getfullpathnamew": 2.0,
            "shgetfolderpathw": 1.5,
        }),
    )


def _installer_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="installer",
        activation_probability=probability,
        usages=_usages({
            "createdirectoryw": 4.0,
            "copyfilew": 8.0,
            "writefile": 20.0,
            "createfilew": 12.0,
            "regcreatekeyexw": 3.0,
            "regsetvalueexw": 5.0,
            "createprocessw": 1.5,
            "shfileoperationw": 1.2,
            "getversionexw": 1.5,
            "getwindowsdirectoryw": 1.5,
            "getsystemdirectoryw": 1.5,
            "findresourcew": 3.0,
            "loadresource": 3.0,
            "sizeofresource": 3.0,
        }),
    )


def _updater_network_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="updater",
        activation_probability=probability,
        usages=_usages({
            "internetopenw": 1.2,
            "internetopenurlw": 1.5,
            "internetreadfile": 8.0,
            "internetclosehandle": 1.5,
            "httpqueryinfow": 2.0,
            "getaddrinfo": 1.5,
            "certgetcertificatechain": 1.0,
            "certverifycertificatechainpolicy": 1.0,
            "cryptcreatehash": 1.2,
            "crypthashdata": 3.0,
            "writefile": 4.0,
            "createfilew": 2.0,
        }),
    )


def _media_group(probability: float) -> BehaviorGroup:
    return BehaviorGroup(
        name="media_playback",
        activation_probability=probability,
        usages=_usages({
            "createcompatibledc": 4.0,
            "createcompatiblebitmap": 4.0,
            "stretchblt": 12.0,
            "bitblt": 18.0,
            "getdibits": 6.0,
            "setdibits": 6.0,
            "playsoundw": 1.2,
            "mcisendstringw": 20.0,
            "timegettime": 15.0,
            "timebeginperiod": 1.2,
            "createthread": 3.0,
            "waitforsingleobject": 8.0,
        }),
    )


def _developer_tool_group(probability: float) -> BehaviorGroup:
    """Clean tools that *legitimately* touch debug / process APIs.

    This group creates the benign/malicious overlap responsible for most
    false positives, keeping the detector's operating point realistic.
    """
    return BehaviorGroup(
        name="developer_tools",
        activation_probability=probability,
        usages=_usages({
            "openprocess": 2.0,
            "readprocessmemory": 3.0,
            "enumprocesses": 1.5,
            "enumprocessmodules": 2.0,
            "getmodulebasenamew": 3.0,
            "isdebuggerpresent": 1.0,
            "debugactiveprocess": 0.6,
            "getthreadcontext": 1.0,
            "virtualqueryex": 3.0,
            "createtoolhelp32snapshot": 1.2,
            "process32nextw": 10.0,
            "outputdebugstringa": 4.0,
        }),
    )


# --------------------------------------------------------------------------- #
# Profile library
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ProfileLibrary:
    """A collection of behaviour profiles with class-conditional sampling."""

    profiles: Tuple[BehaviorProfile, ...]

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ConfigurationError("profile library is empty")
        names = [p.name for p in self.profiles]
        if len(names) != len(set(names)):
            raise ConfigurationError("profile names must be unique")

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    def by_name(self, name: str) -> BehaviorProfile:
        """Look a profile up by name."""
        for profile in self.profiles:
            if profile.name == name:
                return profile
        raise KeyError(f"no profile named {name!r}")

    def for_label(self, label: int, include_novel: bool = False) -> List[BehaviorProfile]:
        """All profiles of one class, optionally including test-only families."""
        return [p for p in self.profiles
                if p.label == label and (include_novel or not p.novel)]

    def sample_profile(self, label: int, rng: np.random.Generator,
                       include_novel: bool = False,
                       novel_probability: float = 0.0) -> BehaviorProfile:
        """Draw a family for a new sample of class ``label``.

        ``novel_probability`` is the chance of drawing a test-only family
        when ``include_novel`` is set; it models the fraction of VirusTotal
        samples whose families were absent from the January/February 2018
        training collection.
        """
        novel = [p for p in self.profiles if p.label == label and p.novel]
        known = [p for p in self.profiles if p.label == label and not p.novel]
        if include_novel and novel and rng.random() < novel_probability:
            pool = novel
        else:
            pool = known if known else novel
        if not pool:
            raise ConfigurationError(f"no profiles available for label {label}")
        return pool[int(rng.integers(len(pool)))]


def default_profile_library() -> ProfileLibrary:
    """The built-in clean / malware family library."""
    clean_profiles = [
        BehaviorProfile(
            name="clean_gui_utility", label=CLASS_CLEAN,
            groups=(
                _runtime_startup_group(),
                _gui_group(0.95),
                _file_io_group(0.8, scale=0.6),
                _registry_read_group(0.7),
            ),
        ),
        BehaviorProfile(
            name="clean_document_editor", label=CLASS_CLEAN,
            groups=(
                _runtime_startup_group(),
                _gui_group(0.9),
                _document_editing_group(0.95),
                _registry_read_group(0.6),
                _file_io_group(0.7, scale=0.8),
            ),
        ),
        BehaviorProfile(
            name="clean_installer", label=CLASS_CLEAN,
            groups=(
                _runtime_startup_group(),
                _installer_group(0.95),
                _gui_group(0.5),
                _registry_read_group(0.8),
                _file_io_group(0.9, scale=1.2),
            ),
        ),
        BehaviorProfile(
            name="clean_updater_service", label=CLASS_CLEAN,
            groups=(
                _runtime_startup_group(),
                _updater_network_group(0.9),
                _network_client_group(0.6, scale=0.7),
                _file_io_group(0.7, scale=0.7),
                _registry_read_group(0.7),
            ),
        ),
        BehaviorProfile(
            name="clean_media_player", label=CLASS_CLEAN,
            groups=(
                _runtime_startup_group(),
                _gui_group(0.9),
                _media_group(0.95),
                _file_io_group(0.8, scale=1.0),
            ),
        ),
        BehaviorProfile(
            name="clean_developer_tool", label=CLASS_CLEAN,
            groups=(
                _runtime_startup_group(),
                _developer_tool_group(0.9),
                _gui_group(0.5),
                _file_io_group(0.7, scale=0.7),
                _registry_read_group(0.5),
            ),
        ),
        BehaviorProfile(
            name="clean_console_tool", label=CLASS_CLEAN, novel=True,
            groups=(
                _runtime_startup_group(),
                _file_io_group(0.95, scale=1.4),
                _registry_read_group(0.3),
                _network_client_group(0.2, scale=0.4),
            ),
        ),
    ]

    malware_profiles = [
        BehaviorProfile(
            name="malware_trojan_injector", label=CLASS_MALWARE,
            groups=(
                _runtime_startup_group(),
                _self_unpacking_group(0.9),
                _process_injection_group(0.95),
                _persistence_group(0.8),
                _anti_analysis_group(0.7),
                _file_io_group(0.5, scale=0.5),
            ),
        ),
        BehaviorProfile(
            name="malware_ransomware", label=CLASS_MALWARE,
            groups=(
                _runtime_startup_group(),
                _mass_encryption_group(0.95),
                _persistence_group(0.6),
                _beaconing_group(0.5),
                _anti_analysis_group(0.6),
            ),
        ),
        BehaviorProfile(
            name="malware_spyware_keylogger", label=CLASS_MALWARE,
            groups=(
                _runtime_startup_group(),
                _keylogging_group(0.95),
                _credential_theft_group(0.7),
                _beaconing_group(0.8),
                _persistence_group(0.7),
                _gui_group(0.4),
            ),
        ),
        BehaviorProfile(
            name="malware_botnet_client", label=CLASS_MALWARE,
            groups=(
                _runtime_startup_group(),
                _beaconing_group(0.95),
                _persistence_group(0.8),
                _dropper_group(0.6),
                _anti_analysis_group(0.7),
                _self_unpacking_group(0.6),
            ),
        ),
        BehaviorProfile(
            name="malware_dropper", label=CLASS_MALWARE,
            groups=(
                _runtime_startup_group(),
                _dropper_group(0.95),
                _network_client_group(0.7, scale=1.0),
                _persistence_group(0.6),
                _anti_analysis_group(0.5),
            ),
        ),
        # Test-only ("novel") families: stealthier behaviour that overlaps
        # heavily with clean software, responsible for the ~12% of test
        # malware the paper's detector misses (TPR 0.883).
        BehaviorProfile(
            name="malware_stealthy_backdoor", label=CLASS_MALWARE, novel=True,
            groups=(
                _runtime_startup_group(),
                _gui_group(0.6),
                _file_io_group(0.8, scale=0.8),
                _registry_read_group(0.7),
                _network_client_group(0.7, scale=0.8),
                _process_injection_group(0.25),
                _persistence_group(0.35),
            ),
        ),
        BehaviorProfile(
            name="malware_living_off_the_land", label=CLASS_MALWARE, novel=True,
            groups=(
                _runtime_startup_group(),
                _developer_tool_group(0.8),
                _file_io_group(0.8, scale=0.9),
                _registry_read_group(0.8),
                _updater_network_group(0.5),
                _persistence_group(0.3),
                _credential_theft_group(0.25),
            ),
        ),
    ]
    return ProfileLibrary(tuple(clean_profiles + malware_profiles))
