"""Frozen reference values shared across the test modules.

Sources: 60-digit independent recomputation (mpmath Hurwitz-zeta betas,
deep exclusion chains with certified tails) plus the printed values of the
source tables.  Strings keep more digits than any assertion consumes.
"""

from decimal import Decimal

# Constants.
PI = Decimal("3.14159265358979323846264338327950288419716939937511")
LN2 = Decimal("0.69314718055994530941723212145817656807550013436026")
HALF_LN2 = Decimal("0.34657359027997265470861606072908828403775006718013")
LNPI = Decimal("1.14472988584940017414342735135305871164729481291531")

# beta(n) via Hurwitz zeta at 30 significant digits (independent oracle).
BETA = {
    1: Decimal("0.78539816339744830961566084582"),
    3: Decimal("0.968946146259369380483634845847"),
    5: Decimal("0.996157828077088064006319368631"),
    7: Decimal("0.999554507890539909496346549899"),
    9: Decimal("0.999949684187220089821358873294"),
    11: Decimal("0.999994374973823699169182451429"),
    13: Decimal("0.99999937358377184111280361354"),
    15: Decimal("0.999999930340842624387160697581"),
    17: Decimal("0.999999992257782104288424514813"),
}

EULER_NUMBERS_9 = [1, 1, 5, 61, 1385, 50521, 2702765, 199360981, 19391512145]

# Converged prime sums W(n); the n=3 chain ran through primes beyond 3e4,
# certified tail below 1e-19.
W_TRUE = {
    3: Decimal("0.03225247383350252743466"),
    5: Decimal("0.003858069415480662095794"),
    7: Decimal("0.0004456959589340019986221"),
    9: Decimal("0.00005031836933794511539693"),
    11: Decimal("0.000005625057930147507903766"),
    13: Decimal("6.264166210637657860576E-7"),
}

# W(1) to 40 places from mpmath log-L references (the benchmark's reference).
W1_REFERENCE = Decimal("0.3349813252999931810633171214875435737800")

# First-power exclusion chain from the exact starting value pi/4.
S13_CHAIN = {
    "B": Decimal("0.71386421786326441282"),
    "C": Decimal("0.70442470762394486359"),
    "D": Decimal("0.68124728490355603458"),
    "E": Decimal("0.67737799045755896413"),
    "F": Decimal("0.67395663987624157461"),
    "G": Decimal("0.67606645575549264808"),
    "H": Decimal("0.67119379346708307538"),
    "I": Decimal("0.66924502534443859568"),
    "K": Decimal("0.66935854858836626104"),
}

# Third/fifth/seventh-power chains at the source's truncation depths.
S23_CHAIN_N3 = [Decimal("0.96779600352823491309"), Decimal("0.96775733920371273749"),
                Decimal("0.96774799336184903421"), Decimal("0.96774776832976333158")]
S24_CHAIN_N5 = [Decimal("0.99614201666999789143"), Decimal("0.99614193435223550857")]
S25_CHAIN_N7 = [Decimal("0.99955430419044413442")]

# W at the source's truncation depths (4, 2 and 1 primes).
P_AT_DEPTH4 = Decimal("0.032252231670236668415")
Q_AT_DEPTH2 = Decimal("0.0038580656477644914341")
R_AT_DEPTH1 = Decimal("0.00044569580955586557933")

# Running assembly after the P, Q, R subtractions at those depths, then the
# complement terms, reproducing the worked computation with exact arithmetic.
RUN_AFTER_P = Decimal("0.33582284638989376524")
RUN_AFTER_Q = Decimal("0.33505123326034086695")
RUN_AFTER_R = Decimal("0.33498756243040431472")
O_PROCEDURE = Decimal("0.33498141223266014838")

# Running assembly built from fully converged W values instead.
RUN_CONVERGED = [Decimal("0.33582276566880514583"),
                 Decimal("0.33505115178570902864"),
                 Decimal("0.33498748093443278193")]

# (1/2) ln 2 minus the assembly through max_k, converged values.
RESIDUALS = {
    0: Decimal("0.0115922649799268467"),
    2: Decimal("0.0000698264856632051"),
    4: Decimal("5.64704460480767E-7"),
    6: Decimal("5.14966381210287E-9"),
}

# Brute-force sieved tail for n=3 after the 4th prime, summed through 169.
ORACLE_N3_K4_M169 = Decimal("0.000451463595618904")

HALF_LN_3_2 = Decimal("0.20273255405408219099")

# Printed values of the source tables (period-style canonical form).
PRINTED_S21 = {3: "0.9689462", 5: "0.9961578", 7: "0.9995547",
               9: "0.9999499", 11: "0.9999947", 13: "0.9999997"}
PRINTED_S21_DIFFS = ["0.0272116", "0.0033969", "0.0003952",
                     "0.0000448", "0.0000050", "0.0000005"]
PRINTED_S13 = {"B": "0.713864", "C": "0.704424", "D": "0.681247",
               "E": "0.677377", "F": "0.673956", "G": "0.676066",
               "H": "0.671193", "I": "0.699245", "K": "0.669358"}
PRINTED_S28 = {1: "0.3349816", 3: "0.0322521", 5: "0.0038602", 7: "0.0004455",
               9: "0.0000501", 11: "0.0000053", 13: "0.0000003"}
