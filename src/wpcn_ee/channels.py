"""Random scenario generation: geometry, path loss, and small-scale fading.

Users are dropped uniformly on the line between the power station and
the information receiver, close to the station (the regime where energy
harvesting is worth anything).  The downlink sees Rician fading through
the strong line-of-sight to the nearby station; the uplink over the
long hop is Rayleigh.  Both fading powers are normalized to unit mean
so ref_gain * d^-alpha is the mean path gain.

The random stream is numpy's ``default_rng(seed)`` reproduced to the
bit in plain Python: SeedSequence, the PCG64 bit generator, and the
``uniform`` and ziggurat ``standard_normal`` draws.  numpy may change
its Generator streams between versions (NEP 19); this copy pins them,
and a draw never imports ``numpy.random``.  numpy still computes the
two path-loss powers, whose last bits follow its SIMD ``power``.
"""

from __future__ import annotations

import binascii
import math
import struct
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from .model import (
    Scenario,
    SystemParams,
    UserChannel,
    _admissible,
    _battery_vector,
    _harvest_sum,
    _require_integer,
    db_to_linear,
)

_MAX_ATTEMPTS = 100  # admissibility redraws before generate_scenario gives up


@dataclass(frozen=True)
class GeometryConfig:
    """Placement and propagation parameters for random scenarios.

    K            number of users
    d_min_m      closest user distance to the power station, m
    d_max_m      farthest user distance, m
    d_rx_m       station-to-receiver distance, m (users lie inside)
    alpha        path loss exponent
    rician_K_dB  Rician K-factor of the downlink, dB
    ref_gain     path gain at 1 m (linear)
    seed         RNG seed, unless generate_scenario is handed another
    """

    K: int
    d_min_m: float = 2.0
    d_max_m: float = 15.0
    d_rx_m: float = 300.0
    alpha: float = 2.8
    rician_K_dB: float = 7.0
    ref_gain: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require_integer("K", self.K)
        _require_seed(self.seed)
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not 0.0 < self.d_min_m <= self.d_max_m:
            raise ValueError("need 0 < d_min_m <= d_max_m")
        if self.d_max_m >= self.d_rx_m:
            raise ValueError("users must lie strictly between station and receiver")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.ref_gain <= 0.0:
            raise ValueError("ref_gain must be positive")


def _require_seed(seed) -> None:
    """Reject a seed default_rng would not take as given: anything but a
    nonnegative integer, numpy's included; a bool is not 1."""
    _require_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed!r}")


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG_DEFAULT_MULTIPLIER_128

# numpy's ziggurat for standard_normal: 256 strips, the base strip's tail
# beyond _ZIG_R.  Per strip, ki is the 52-bit magnitude under which a draw
# is taken at once, wi scales the magnitude to x, and fi is the density
# exp(-x^2/2) at the strip's edge x = wi * 2**52.  The tables are numpy's
# own integers and doubles, packed little-endian as 256 uint64, 256
# float64 (wi) and 256 float64 (fi).  Neither derives from wi to the bit
# in double arithmetic: the ratio of adjacent edges misses 66 entries of
# ki, and math.exp misses fi at strip 38 by an ulp.
_ZIG_R = 3.6541528853610087963519472518
_ZIG_INV_R = 0.27366123732975827203338247596
_ZIG = struct.unpack("<256Q512d", binascii.a2b_base64(
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCq"
    "RPoKRxkPABjL/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4l"
    "g1emjw8A2tBNxySXDwAJ9dsHqZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRT"
    "jZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqX"
    "osYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8AmeyPTbXODwAwyR2/B9APAObE1k1G"
    "0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLoyKlu1w8A6Ah7VEjY"
    "DwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiBO90P"
    "AJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8A"
    "TLgoPFnhDwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/"
    "rZ7pEOQPADR31EZn5A8AXAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ"
    "2W825g8AeNXGdXvmDwCqER5mvuYPAPL05VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3"
    "jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBBx+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJ"
    "WekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLqDwAslTKrWuoPABp01aaB"
    "6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A+oTi9Hbr"
    "DwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwP"
    "AJbxKf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8A"
    "t5F/xP7sDwAohTV3E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCC"
    "qeRXg+0PAMgspAaU7Q8ABLeFK6TtDwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZ"
    "kA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4"
    "PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGXWAtq7g8Aegc+bHHuDwCCezJY"
    "eO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahRmO4PAFxIEw6c"
    "7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nu"
    "DwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4P"
    "AC6vJryb7g8A5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A"
    "/zf/m3TuDwBevanDbO4PAH4AnlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDY"
    "KuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqiCe4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5"
    "zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8ANqg4HH/tDwArwLnSae0PAACuBo1T7Q8AIqTe"
    "QTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8AwTAStpjsDwB4qQ0K"
    "eewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKFyeFv"
    "6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATq"
    "DwA7Vi/WxekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgP"
    "AMAzgkir5w8ApWofdUznDwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8A"
    "WPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCq"
    "cSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIICLvj42g8Adbqy4YXZDwAEz0jv5tcPAAtl"
    "va0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u0scPAO0iHi8rww8AOrjA"
    "gWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oaDwB52RV4"
    "O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFov"
    "rJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88"
    "ozwvsaLBnr2jPFWb/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mum"
    "PHAFAJKi0qY8pvhG09o2pzx3KrMQrZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k8"
    "6h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdiqjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6"
    "n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8SLeADp8erTwQH+QpnWetPMO4"
    "IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj22FT2Ua88rteH"
    "nm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE"
    "fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqn"
    "ibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRb"
    "sjx/0x1mKnmyPBvXGceBlrI82i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiez"
    "PKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8"
    "dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae33q0PC+PSDK6lrQ8XUEC9oeytDzc"
    "EbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSF"
    "DsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3"
    "BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3"
    "Jw+3PMYUaVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NM"
    "z7c8595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQ"
    "uDxDwAWSjqy4PJwMoatlyLg8J2pEUUnkuDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5"
    "PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8"
    "W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71Ws14yLo8NrOL4bTlujwa"
    "ocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXba7W7PKLA"
    "LmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2"
    "vY+qvDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0"
    "c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8A"
    "cr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9m"
    "vzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjBWfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTA"
    "PMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8"
    "MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8Oy5gSGRVwTzz"
    "7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM"
    "BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uW"
    "MdTQwjz1eKmxDe7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5w"
    "dazDPKYEF7Mnz8M8dfRgqtvywzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51z"
    "t8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kW"
    "xjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8jM7W9C3Uxzw08ikFAznI"
    "PBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPAAAAAAAAPA/"
    "h/B5yWpE7z8VqWxbVLfuP3fwJ+ARP+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO97D9/"
    "eKnOXmrsP+q67tkcG+w/gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/ouhsPyr56j8EJXrx/rXqP+HJ"
    "UNWLdOo/D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/wXphV0Z96T9HehvCkULpP09xMb3xCOk/qArm"
    "T1XQ6D8C37pIrZjoP6y8N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/1bCgPAOP5z9W2HAH"
    "H1znPxJtP/TlKec/7nrqulD45j+JWmOeWMfmPyo7UV73luY/I+OSKidn5j8YDFWY4jfmP2UmgJgk"
    "CeY/av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT5T/VbGVatSblP2e2IOjE+uQ/wE5JTz/P"
    "5D94UtxyIaTkPxJQ319oeeQ/eTZJShFP5D/jXzWKGSXkP4JbWJl+++M/ozGvED7S4z8OzWKmVanj"
    "P9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/7jvqVazh4j9KldcUqrriPxXNk47yk+I/"
    "7QQFKYRt4j+E25BaXUfiP/L3L6l8IeI/IJaSqeD74T9pmVT+h9bhPxHRP1dxseE/UDybcJuM4T/a"
    "OYYSBWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKis/vgP6BCQRAQ2OA/rtlwjaa04D+BXZkddpHgPzY8"
    "8Mx9buA/Lj+mr7xL4D8qgovhMSngP8TKuIXcBuA/ob17jHfJ3z/KAKmnnYXfP/N6L8spQt8/lY9+"
    "cRr/3j9UH70gbrzeP8XDTmojet4/hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKh"
    "NjTdP21brrQZ9Nw/SKjAc1W03D/H1wC76HTcP7gsHW/SNdw/F2phfBH32z+RbXHWpLjbPxsTB3iL"
    "ets/yjGzYsQ82z9ShaGeTv/aP55aXzopwto/gNikSlOF2j9NwCDqy0jaPz6ERjmSDNo/35MeXqXQ"
    "2T/GwBiEBJXZP5Of4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv2D/ZDap/TzXY"
    "PxHZuBGt+9c/sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/"
    "4sslGsFv1j8V5Xs3PTjWP8jSgHT6ANY/RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+S"
    "bb+OavDUP6KcEFejutQ/1GqtnxmF1D/+JMPvzE/UPxl6NdG8GtQ/29KO0Ojl0z+uQ/F8ULHTP3kT"
    "CGjzfNM/ntH5JdFI0z8v9lpN6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrSP4neFx+KR9I/nsz3"
    "ecAU0j8WgRj2LuLRP1DwwjnVr9E/6FRU7bJ90T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo0D/aQrKI"
    "TbfQPzZDkI87htA/2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/NTK4jBCIzz/SmOls/ifPP0ScyaRU"
    "yM4/3TwoshJpzj+EcUUWOArOPwqQx1XEq80/T1Gy+LZNzT/Mb16KD/DMP1PfcZnNksw/R53Yt/A1"
    "zD+hGL56eNnLP6oxh3pkfcs/OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/PX4tMvcQyj9a/tK/0rbJ"
    "Pyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5xz8jo2jT+KHHP6a1epx8Ssc/"
    "FkeWfmDzxj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOIrJrFPzVoyKltRcU/wR/jrY3wxD8t"
    "zvVsDJzEP9V1A8LpR8Q/rjFpiyX0wz/u1+iqv6DDP4irtAW4TcM/ZSp8hA77wj8aB3oTw6jCP7de"
    "g6LVVsI/NDwYJUYFwj9CfXWSFLTBP2MtqOVAY8E/uW6iHcsSwT+6CVI9s8LAP4W/uEv5csA/Kn0G"
    "VJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntvvj+P6HZhtdO9P+WRvbmrOL0/CnQ7SV+evD8VEAto"
    "0AS8PzPi8nj/a7s/M/bK6ezTuj+GYuozmTy6PxlbndwEprk/q6CkdTAQuT9SKL+dHHu4P9bvPgHK"
    "5rc/dhGqWjlTtz9MSmlza8C2PxhNhSRhLrY/pGZ0VxudtT+uK/oGmwy1PxMiG0DhfLQ/hpomI+/t"
    "sz9wPtnkxV+zPxExm89m0rI/kQ3dRNNFsj99iZe+DLqxP50X8tAUL7E/JZYVLO2ksD+X5DCelxuw"
    "PzVubCssJq8/gVGyR9UWrj9i8a3+LgmtPywqKA8+/as/cF84kAfzqj9jVSn5kOqpP6u1aCrg46g/"
    "Hievd/vepz9k0Jiz6dumP9St8jyy2qU/XScRDl3bpD/L7pjO8t2jP5f0Peh84qI/vGofnwXpoT8R"
    "gJYumPGgP8SlGNeB+J8/dYyC2xoSnj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw"
    "+/Lq1pQ/E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/rI9PJ42kiz94pI0NBEGIP+DPGkKW64Q/ki+V"
    "KZKlgT83aOz4YOF8P124DNmonnY//bGwAx+KcD9nsMFDn19lPw/3ubYFplQ/"
))
_KI, _WI, _FI = _ZIG[:256], _ZIG[256:512], _ZIG[512:]


def _seed_state(seed: int) -> tuple[int, int]:
    """The PCG64 (state, increment) that np.random.default_rng(seed)
    starts from.

    numpy's SeedSequence hashes the seed's little-endian 32-bit words
    into a pool of four and draws eight words back out, with the
    hashmix and mix of O'Neill's seed_seq_fe and numpy's constants.  As
    64-bit words, the first two are the initial state and the next two
    the stream selector of numpy's pcg64_set_seed.
    """
    n = int(seed)
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    words += [0] * (4 - len(words))  # a short seed leaves the pool's tail at 0

    # hashmix(v) = (v ^ h) * h' with h' = h * 0x931E8875, then v ^= v >> 16;
    # the multiplier h runs on across every call.  mix(x, y) =
    # 0xCA01F9DD * x - 0x4973F715 * y, then the same shift.
    h, pool = 0x43B0D7E5, []
    for w in words[:4]:
        w ^= h
        h = h * 0x931E8875 & _MASK32
        w = w * h & _MASK32
        pool.append(w ^ w >> 16)
    mixes = [(pool, src, dst) for src in range(4) for dst in range(4) if src != dst]
    mixes += [(words, src, dst) for src in range(4, len(words)) for dst in range(4)]
    for source, src, dst in mixes:
        w = source[src] ^ h
        h = h * 0x931E8875 & _MASK32
        w = w * h & _MASK32
        w = (0xCA01F9DD * pool[dst] - 0x4973F715 * (w ^ w >> 16)) & _MASK32
        pool[dst] = w ^ w >> 16

    h, out = 0x8B51F9DD, []
    for w in pool * 2:
        w ^= h
        h = h * 0x58F38DED & _MASK32
        w = w * h & _MASK32
        out.append(w ^ w >> 16)
    init = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = (out[5] << 97 | out[4] << 65 | out[7] << 33 | out[6] << 1 | 1) & _MASK128
    return ((inc + init) * _PCG_MULT + inc) & _MASK128, inc


class _PCG64:
    """numpy's PCG64 bit generator at a (state, increment), with the
    Generator draws a channel attempt makes, each to the bit."""

    __slots__ = ("state", "inc")

    def __init__(self, state: int, inc: int):
        self.state, self.inc = state, inc

    def next64(self) -> int:
        """One step of the 128-bit LCG, then the XSL-RR output of the new
        state: its high and low halves xored, rotated right by its top
        6 bits."""
        s = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        v = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return (v >> rot | v << (64 - rot)) & _MASK64

    def next_double(self) -> float:
        return (self.next64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float, n: int) -> tuple[float, ...]:
        """Generator.uniform(lo, hi, n): lo + (hi - lo) * next_double."""
        scale = hi - lo
        return tuple(lo + scale * self.next_double() for _ in range(n))

    def standard_normal(self, n: int) -> tuple[float, ...]:
        """Generator.standard_normal(n), numpy's ziggurat: a strip index,
        a sign bit and a 52-bit magnitude from one word; past the strip's
        bound the tail or the density test decides, on more draws."""
        out = []
        while len(out) < n:
            r = self.next64()
            idx = r & 0xFF
            rabs = r >> 9 & 0xFFFFFFFFFFFFF
            x = rabs * _WI[idx]
            if r & 0x100:
                x = -x
            if rabs < _KI[idx]:
                out.append(x)
            elif idx == 0:
                # beyond _ZIG_R: Marsaglia's tail, with 1 - U so log never sees 0
                while True:
                    xx = -_ZIG_INV_R * math.log1p(-self.next_double())
                    yy = -math.log1p(-self.next_double())
                    if yy + yy > xx * xx:
                        out.append(-(_ZIG_R + xx) if rabs >> 8 & 1 else _ZIG_R + xx)
                        break
            elif (_FI[idx - 1] - _FI[idx]) * self.next_double() + _FI[idx] < math.exp(
                -0.5 * x * x
            ):
                out.append(x)
        return tuple(out)


# One attempt: the user distances, and each user's downlink and uplink
# fading powers.
Attempt = tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]

# Every attempt drawn so far at the latest (seed, K, d_min_m, d_max_m,
# rician_K_dB), as (key, attempts, generator (state, increment) after
# the last of them).  Assigned whole, so a reader never pairs one key
# with another key's attempts or state.
_latest_draw: tuple[tuple, tuple[Attempt, ...], tuple[int, int]] = ((), (), (0, 0))


def _attempts(geo: GeometryConfig, seed: int) -> Iterator[Attempt]:
    """Each draw attempt at seed, in the order default_rng(seed) draws
    its variates: uniform(d_min_m, d_max_m, K) distances, then
    standard_normal(K) four times, the real and imaginary parts of the
    down- and uplink fading, which form the fading powers at once.

    The path loss and the reference gain apply later, so every value of
    a sweep trial reads one set of attempts.  Only the latest key's
    attempts are kept, with the generator state after them; an attempt
    past them continues from that state, in a generator of the caller's
    own, so the attempts never depend on call order.
    """
    global _latest_draw
    key = (seed, geo.K, geo.d_min_m, geo.d_max_m, geo.rician_K_dB)
    latest, drawn, state = _latest_draw
    if latest != key:
        drawn, state = (), _seed_state(seed)
    yield from drawn
    rng = _PCG64(*state)
    kappa = db_to_linear(geo.rician_K_dB)
    los = math.sqrt(kappa / (kappa + 1.0))
    scatter = math.sqrt(1.0 / (2.0 * (kappa + 1.0)))
    while True:
        d = rng.uniform(geo.d_min_m, geo.d_max_m, geo.K)
        x, y, xu, yu = (rng.standard_normal(geo.K) for _ in range(4))
        fade_dl, fade_ul = [], []
        for xk, yk, xuk, yuk in zip(x, y, xu, yu):
            # Downlink: Rician with K-factor kappa, unit mean power.
            re, im = los + scatter * xk, scatter * yk
            fade_dl.append(re * re + im * im)
            # Uplink: Rayleigh, unit mean power.
            fade_ul.append(0.5 * (xuk * xuk + yuk * yuk))
        drawn += ((d, tuple(fade_dl), tuple(fade_ul)),)
        _latest_draw = (key, drawn, (rng.state, rng.inc))
        yield drawn[-1]


def _gains(attempt: Attempt, geo: GeometryConfig) -> tuple[list[float], list[float]]:
    """Downlink and uplink power gains h and g of one attempt."""
    d, fade_dl, fade_ul = attempt
    # Path loss: numpy's elementwise power over the users' distances.
    # Its SIMD loop and libm's pow can round differently, so the gains
    # keep numpy's doubles.
    dist = np.array(d)
    near = (dist ** (-geo.alpha)).tolist()
    far = ((geo.d_rx_m - dist) ** (-geo.alpha)).tolist()
    h = [geo.ref_gain * pl * fade for pl, fade in zip(near, fade_dl)]
    g = [geo.ref_gain * pl * fade for pl, fade in zip(far, fade_ul)]
    return h, g


def generate_scenario(
    geo: GeometryConfig,
    params: SystemParams,
    *,
    Q: Iterable[float] | float = 0.0,
    seed: int | None = None,
) -> Scenario:
    """Draw one scenario; deterministic in its seed.

    seed is the RNG seed of the draw, geo.seed when None; a seed given
    here is checked as GeometryConfig checks its own, and the draw
    equals the one at a copy of geo with that seed, so a sweep draws
    each trial at its seed without rebuilding the geometry.
    Q is the initial battery energy, one value shared by every user or
    one per user; it is checked before the draw, and each user's channel
    is built once with its charge.  Draws violating the admissibility
    bound sum eta*h < 1/xi are rejected and redrawn (vanishingly rare at
    realistic gains); a ValueError after _MAX_ATTEMPTS, as the geometry
    itself is then at fault.
    """
    if seed is None:
        seed = geo.seed
    else:
        _require_seed(seed)
    qs = _battery_vector(Q, geo.K)
    for _, attempt in zip(range(_MAX_ATTEMPTS), _attempts(geo, seed)):
        h, g = _gains(attempt, geo)
        if not _admissible(params, _harvest_sum(params, h)):
            continue
        users = tuple(UserChannel.from_gains(hi, gi, qi, params) for hi, gi, qi in zip(h, g, qs))
        return Scenario(params=params, users=users)
    raise ValueError(
        f"no admissible channel draw in {_MAX_ATTEMPTS} attempts; "
        "the geometry harvests more than the station radiates"
    )
