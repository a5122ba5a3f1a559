"""Country token normalisation.

Affiliation exports rarely agree on country spelling, so ingestion accepts
either an ISO-3166 alpha-2 code or a free-text name and maps everything to
the alpha-2 code via the lookup table below. The table covers the countries
that dominate journal-level national output plus common variants; anything
unrecognised is rejected rather than guessed.
"""

from __future__ import annotations

import re

from .errors import MalformedCountry

_CODE_RE = re.compile(r"^[A-Za-z]{2}$")

COUNTRY_NAME_TO_CODE: dict[str, str] = {
    "united states": "US",
    "united states of america": "US",
    "usa": "US",
    "united kingdom": "GB",
    "uk": "GB",
    "great britain": "GB",
    "england": "GB",
    "scotland": "GB",
    "wales": "GB",
    "northern ireland": "GB",
    "japan": "JP",
    "germany": "DE",
    "france": "FR",
    "china": "CN",
    "peoples r china": "CN",
    "peoples republic of china": "CN",
    "pr china": "CN",
    "italy": "IT",
    "spain": "ES",
    "canada": "CA",
    "india": "IN",
    "south korea": "KR",
    "republic of korea": "KR",
    "korea": "KR",
    "russia": "RU",
    "russian federation": "RU",
    "ussr": "RU",
    "netherlands": "NL",
    "the netherlands": "NL",
    "holland": "NL",
    "australia": "AU",
    "brazil": "BR",
    "switzerland": "CH",
    "sweden": "SE",
    "poland": "PL",
    "belgium": "BE",
    "taiwan": "TW",
    "israel": "IL",
    "austria": "AT",
    "denmark": "DK",
    "finland": "FI",
    "norway": "NO",
    "greece": "GR",
    "portugal": "PT",
    "czech republic": "CZ",
    "czechia": "CZ",
    "czechoslovakia": "CZ",
    "hungary": "HU",
    "ireland": "IE",
    "mexico": "MX",
    "turkey": "TR",
    "iran": "IR",
    "egypt": "EG",
    "south africa": "ZA",
    "argentina": "AR",
    "chile": "CL",
    "new zealand": "NZ",
    "singapore": "SG",
    "ukraine": "UA",
    "romania": "RO",
    "slovakia": "SK",
    "slovenia": "SI",
    "croatia": "HR",
    "bulgaria": "BG",
    "serbia": "RS",
    "thailand": "TH",
    "malaysia": "MY",
    "indonesia": "ID",
    "vietnam": "VN",
    "viet nam": "VN",
    "philippines": "PH",
    "pakistan": "PK",
    "saudi arabia": "SA",
    "hong kong": "HK",
    "colombia": "CO",
    "venezuela": "VE",
    "peru": "PE",
    "cuba": "CU",
    "morocco": "MA",
    "tunisia": "TN",
    "nigeria": "NG",
    "kenya": "KE",
    "estonia": "EE",
    "latvia": "LV",
    "lithuania": "LT",
    "belarus": "BY",
    "iceland": "IS",
    "luxembourg": "LU",
}


def normalize_country_token(token: str) -> str:
    """Map a raw country token to an uppercase ISO alpha-2 code.

    Raises MalformedCountry when the token is neither a two-letter code nor
    a recognised country name.
    """
    stripped = token.strip()
    if not stripped:
        raise MalformedCountry("empty country token")
    if _CODE_RE.match(stripped):
        return stripped.upper()
    cleaned = stripped.replace(".", " ").replace("'", "").replace(",", " ")
    code = COUNTRY_NAME_TO_CODE.get(" ".join(cleaned.lower().split()))
    if code is None:
        raise MalformedCountry(f"unrecognised country token: {token!r}")
    return code
