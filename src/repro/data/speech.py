"""Formant-trajectory synthesis of spoken digits (the SHD audio substitute).

The Spiking Heidelberg Digits dataset records speakers saying 0-9 in
English and German (20 classes).  Offline, we synthesize the *words*
instead of recording them: each word is a sequence of acoustic segments
(vowels with formant targets, diphthongs with moving formants, fricatives,
nasal murmurs, plosive bursts) rendered by additive harmonic synthesis plus
filtered noise.  Class identity lives in the formant *trajectories over
time* — exactly the timing-rich structure the paper's SHD experiments rely
on — while per-sample speaker variability (pitch, vocal-tract scaling,
tempo, loudness) provides within-class variance.

This is deliberately a signal-processing model, not a TTS system: it only
needs to produce 20 acoustically distinct, temporally structured word
classes for the inner-ear encoder in :mod:`repro.data.cochlea`.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from ..common.errors import DatasetError
from ..common.rng import RandomState, as_random_state

__all__ = ["WORDS", "LANGUAGES", "synthesize_digit", "segment_table"]

# -- segment primitives ------------------------------------------------------
# Each segment: (kind, duration_weight, start_formants, end_formants, amplitude)
# Formants are (F1, F2, F3) in Hz; end_formants None means static.


def _seg(kind: str, dur: float, start, end=None, amp: float = 1.0):
    return {
        "kind": kind,
        "dur": float(dur),
        "start": tuple(float(f) for f in start),
        "end": None if end is None else tuple(float(f) for f in end),
        "amp": float(amp),
    }


# Canonical vowel formant targets (Hz), loosely Peterson-Barney.
_IY = (270, 2290, 3010)   # "ee"
_IH = (390, 1990, 2550)   # "i"
_EH = (530, 1840, 2480)   # "e"
_AE = (660, 1720, 2410)   # "a" (cat)
_AH = (710, 1100, 2540)   # "a" (father)
_AO = (570, 840, 2410)    # "aw"
_UW = (300, 870, 2240)    # "oo"
_UH = (440, 1020, 2240)   # "u" (book)
_ER = (490, 1350, 1690)   # "er"
_AX = (500, 1500, 2500)   # schwa
_OW = (450, 880, 2540)    # "o"
_Y_UML = (280, 1700, 2100)  # German ü

_NASAL = (250, 1100, 2300)

_FRIC_S = (0, 0, 0)       # placeholders; fricatives use noise bands below
_NOISE_BANDS = {
    "s": (2200, 3800),
    "z": (2000, 3600),
    "f": (1200, 3600),
    "v": (900, 2800),
    "th": (1400, 3400),
    "sh": (1600, 3000),
    "x": (1000, 2600),    # German "ach" sound
    "h": (500, 2000),
}


def _fric(kind_key: str, dur: float, amp: float = 0.55):
    band = _NOISE_BANDS[kind_key]
    return {
        "kind": "fricative",
        "dur": float(dur),
        "band": band,
        "amp": float(amp),
        "start": (0.0, 0.0, 0.0),
        "end": None,
    }


def _burst(dur: float = 0.05, amp: float = 0.8, band=(800, 3600)):
    return {
        "kind": "burst",
        "dur": float(dur),
        "band": band,
        "amp": float(amp),
        "start": (0.0, 0.0, 0.0),
        "end": None,
    }


def _nasal(dur: float, amp: float = 0.45):
    return _seg("nasal", dur, _NASAL, amp=amp)


LANGUAGES = ("english", "german")

# Word inventories: 10 digits x 2 languages -> 20 classes.
#
# Deliberate design constraint: all 20 words are sequences over a SHARED
# phoneme inventory (six vowels, two fricative bands, one nasal, one burst)
# — just like real speech, where every word reuses the same phonemes.
# Channel-occupancy statistics therefore overlap heavily across classes and
# the discriminative information is the *order and duration* of segments.
# This is the property Cramer et al. report for real SHD ("spike timing is
# essential") and the property the paper's hard-reset ablation exposes.
WORDS: dict[tuple[str, int], list[dict]] = {
    # -- English ------------------------------------------------------------
    # zero: s-IY-ER-OW
    ("english", 0): [_fric("s", 0.18), _seg("vowel", 0.25, _IY),
                     _seg("glide", 0.22, _ER, _OW), _seg("vowel", 0.35, _OW)],
    # one: UW-AH-n
    ("english", 1): [_seg("glide", 0.3, _UW, _AH), _seg("vowel", 0.35, _AH),
                     _nasal(0.35)],
    # two: t-UW
    ("english", 2): [_burst(0.1), _seg("glide", 0.25, _EH, _UW),
                     _seg("vowel", 0.65, _UW)],
    # three (th->f): f-ER-IY
    ("english", 3): [_fric("f", 0.22), _seg("glide", 0.28, _ER, _IY),
                     _seg("vowel", 0.5, _IY)],
    # four: f-OW-ER
    ("english", 4): [_fric("f", 0.22), _seg("vowel", 0.43, _OW),
                     _seg("glide", 0.35, _OW, _ER)],
    # five: f-AH>IY-f
    ("english", 5): [_fric("f", 0.2), _seg("glide", 0.42, _AH, _IY),
                     _seg("vowel", 0.16, _IY), _fric("f", 0.22, amp=0.4)],
    # six: s-EH-t-s
    ("english", 6): [_fric("s", 0.24), _seg("vowel", 0.3, _EH),
                     _burst(0.1), _fric("s", 0.36)],
    # seven: s-EH-f-AH-n
    ("english", 7): [_fric("s", 0.2), _seg("vowel", 0.26, _EH),
                     _fric("f", 0.12, amp=0.35), _seg("vowel", 0.2, _AH),
                     _nasal(0.22)],
    # eight: EH>IY-t
    ("english", 8): [_seg("glide", 0.5, _EH, _IY),
                     _seg("vowel", 0.3, _IY), _burst(0.2)],
    # nine: n-AH>IY-n
    ("english", 9): [_nasal(0.22), _seg("glide", 0.42, _AH, _IY),
                     _seg("vowel", 0.14, _IY), _nasal(0.22)],
    # -- German -------------------------------------------------------------
    # null: n-UW-ER
    ("german", 0): [_nasal(0.26), _seg("vowel", 0.42, _UW),
                    _seg("glide", 0.32, _UW, _ER)],
    # eins: AH>IY-n-s
    ("german", 1): [_seg("glide", 0.42, _AH, _IY), _nasal(0.3),
                    _fric("s", 0.28)],
    # zwei: s-f-AH>IY
    ("german", 2): [_fric("s", 0.16), _fric("f", 0.12, amp=0.4),
                    _seg("glide", 0.44, _AH, _IY),
                    _seg("vowel", 0.28, _IY)],
    # drei: t-ER-AH>IY
    ("german", 3): [_burst(0.1), _seg("glide", 0.22, _ER, _AH),
                    _seg("glide", 0.42, _AH, _IY),
                    _seg("vowel", 0.26, _IY)],
    # vier: f-IY-ER
    ("german", 4): [_fric("f", 0.24), _seg("vowel", 0.42, _IY),
                    _seg("glide", 0.34, _IY, _ER)],
    # fuenf: f-UW-n-f
    ("german", 5): [_fric("f", 0.22), _seg("vowel", 0.36, _UW),
                    _nasal(0.2), _fric("f", 0.22)],
    # sechs: s-EH-t-AH-s
    ("german", 6): [_fric("s", 0.2), _seg("vowel", 0.26, _EH),
                    _burst(0.1), _seg("vowel", 0.14, _AH), _fric("s", 0.3)],
    # sieben: s-IY-t-AH-n
    ("german", 7): [_fric("s", 0.2), _seg("vowel", 0.3, _IY),
                    _burst(0.1), _seg("vowel", 0.18, _AH), _nasal(0.22)],
    # acht: AH-f-t
    ("german", 8): [_seg("vowel", 0.45, _AH), _fric("f", 0.33),
                    _burst(0.22)],
    # neun: n-OW>IY-n
    ("german", 9): [_nasal(0.22), _seg("glide", 0.42, _OW, _IY),
                    _seg("vowel", 0.14, _IY), _nasal(0.22)],
}


def segment_table(language: str, digit: int) -> list[dict]:
    """The segment specification for one word (read-only copy)."""
    key = (language, digit)
    if key not in WORDS:
        raise DatasetError(
            f"no word for language={language!r}, digit={digit}; "
            f"languages: {LANGUAGES}, digits: 0-9"
        )
    return [dict(seg) for seg in WORDS[key]]


def synthesize_digit(language: str, digit: int,
                     rng: RandomState | int | None = None,
                     sample_rate: int = 8000,
                     base_duration: float = 0.45) -> np.ndarray:
    """Synthesize one spoken digit; returns a float waveform in [-1, 1].

    Parameters
    ----------
    language:
        ``"english"`` or ``"german"``.
    digit:
        0-9.
    rng:
        Speaker/prosody randomness: fundamental frequency (90-240 Hz),
        vocal-tract formant scaling (0.88-1.15), per-segment tempo, and
        amplitude jitter.
    sample_rate:
        Output rate in Hz (8 kHz keeps all formants and fricative bands
        below Nyquist while staying fast).
    base_duration:
        Nominal word duration in seconds before tempo jitter.
    """
    generator = as_random_state(rng)
    segments = segment_table(language, digit)

    f0 = float(generator.uniform(90.0, 240.0))
    tract_scale = float(generator.uniform(0.88, 1.15))
    tempo = float(generator.uniform(0.8, 1.25))
    duration = base_duration * tempo

    total_weight = sum(seg["dur"] for seg in segments)
    pieces: list[np.ndarray] = []
    for index, seg in enumerate(segments):
        seg_dur = duration * seg["dur"] / total_weight
        seg_dur *= float(generator.uniform(0.85, 1.15))
        n = max(8, int(round(seg_dur * sample_rate)))
        seg_rng = generator.child(f"segment{index}")
        if seg["kind"] in ("vowel", "glide", "nasal"):
            pieces.append(_render_voiced(seg, n, f0, tract_scale,
                                         sample_rate, seg_rng))
        elif seg["kind"] == "fricative":
            pieces.append(_render_noise(seg, n, tract_scale, sample_rate,
                                        seg_rng, sustained=True))
        elif seg["kind"] == "burst":
            pieces.append(_render_noise(seg, n, tract_scale, sample_rate,
                                        seg_rng, sustained=False))
        else:
            raise DatasetError(f"unknown segment kind {seg['kind']!r}")

    waveform = np.concatenate(pieces)
    # Short fade-in/out to avoid clicks, light amplitude normalisation.
    fade = min(len(waveform) // 20 + 1, 160)
    ramp = np.linspace(0.0, 1.0, fade)
    waveform[:fade] *= ramp
    waveform[-fade:] *= ramp[::-1]
    peak = np.max(np.abs(waveform))
    if peak > 0:
        waveform = waveform / peak * 0.9
    return waveform.astype(np.float64)


def _render_voiced(seg: dict, n: int, f0: float, tract_scale: float,
                   sample_rate: int, rng: RandomState) -> np.ndarray:
    """Additive harmonic synthesis with (possibly moving) formants."""
    t = np.arange(n) / sample_rate
    start = np.asarray(seg["start"], dtype=np.float64) * tract_scale
    end = start if seg["end"] is None else (
        np.asarray(seg["end"], dtype=np.float64) * tract_scale
    )
    progress = np.linspace(0.0, 1.0, n)[:, None]
    formants_t = start[None, :] * (1 - progress) + end[None, :] * progress
    bandwidths = np.array([90.0, 120.0, 170.0])

    # Slow pitch declination + vibrato keeps the source natural.
    f0_track = f0 * (1.0 - 0.12 * progress[:, 0]) * (
        1.0 + 0.01 * np.sin(2 * np.pi * 5.5 * t)
    )
    phase = 2.0 * np.pi * np.cumsum(f0_track) / sample_rate

    nyquist = sample_rate / 2.0
    n_harmonics = max(1, int(nyquist / f0) - 1)
    out = np.zeros(n)
    harmonic_phases = rng.uniform(0.0, 2.0 * np.pi, n_harmonics)
    for harmonic in range(1, n_harmonics + 1):
        freq_track = harmonic * f0_track
        if freq_track.min() >= nyquist:
            break
        amp = _lorentzian_envelope_time(freq_track, formants_t, bandwidths)
        amp = amp / harmonic ** 0.5      # gentle source spectral tilt
        out += amp * np.sin(harmonic * phase + harmonic_phases[harmonic - 1])
    if seg["kind"] == "nasal":
        # Murmur: heavy low-pass character and reduced level.
        b, a = sp_signal.butter(2, 900.0 / nyquist, btype="low")
        out = sp_signal.lfilter(b, a, out)
    return out * seg["amp"]


def _lorentzian_envelope_time(freq_track: np.ndarray, formants_t: np.ndarray,
                              bandwidths: np.ndarray) -> np.ndarray:
    """Per-sample formant envelope for a moving harmonic frequency."""
    envelope = np.zeros_like(freq_track)
    for k in range(formants_t.shape[1]):
        centre = formants_t[:, k]
        bw = bandwidths[k]
        envelope += 1.0 / (1.0 + ((freq_track - centre) / (bw / 2.0)) ** 2)
    return envelope


def _render_noise(seg: dict, n: int, tract_scale: float, sample_rate: int,
                  rng: RandomState, sustained: bool) -> np.ndarray:
    """Band-passed noise for fricatives (sustained) and bursts (decaying)."""
    nyquist = sample_rate / 2.0
    low, high = seg["band"]
    low = min(low * tract_scale, nyquist * 0.85)
    high = min(high * tract_scale, nyquist * 0.95)
    if low >= high:
        low = high * 0.5
    noise = rng.normal(0.0, 1.0, n)
    b, a = sp_signal.butter(2, [low / nyquist, high / nyquist], btype="band")
    shaped = sp_signal.lfilter(b, a, noise)
    if sustained:
        envelope = np.ones(n)
        attack = max(1, n // 6)
        envelope[:attack] = np.linspace(0.0, 1.0, attack)
        envelope[-attack:] = np.linspace(1.0, 0.0, attack)
    else:
        envelope = np.exp(-np.arange(n) / max(1.0, n / 4.0))
    return shaped * envelope * seg["amp"]
