"""The deformed builtins as they were typed by hand: the quantum Lorentz
group's and quantum Minkowski space's relations, and the images of Delta
and DeltaH.

The shipped files derive all of these from `classical.qalg` and the
cocycle phases (`algebra lorentz = twist classical_lorentz by ...`).  This
table is the oracle the derivation is checked against, rule for rule
(`test_dsl`), and the typed text that mutation tests edit.  Each algebra
block starts on its text's first line.
"""

LORENTZ = """\
algebra lorentz {
  gen a d b c;
  heavy a d;
  rel b a = a b;
  rel c a = a c;
  rel d a = 1 + b c;
  rel c b = b c;
  rel b d = d b;
  rel c d = d c;
  rel a d = 1 + b c;
  rel a' a = a a';
  rel b' a = q^4 a b';
  rel c' a = q^-4 a c';
  rel d' a = a d';
  rel b' b = b b';
  rel c' b = b c';
  rel d' b = q^-4 b d';
  rel c' c = c c';
  rel d' c = q^4 c d';
  rel d' d = d d';
}
"""

MINKOWSKI = """\
algebra minkowski {
  gen x y w;
  selfadjoint x y;
  rel y x = x y;
  rel w x = q^-4 x w;
  rel w' x = q^4 x w';
  rel w y = q^4 y w;
  rel w' y = q^-4 y w';
  rel w' w = w w';
}
"""

MAPS = """\
morphism Delta : lorentz -> lorentz @ lorentz {
  a -> a@a + b@c;
  b -> a@b + b@d;
  c -> c@a + d@c;
  d -> c@b + d@d;
}

morphism DeltaH : minkowski -> minkowski @ lorentz {
  x -> x@a' a + w@a' c + w'@c' a + y@c' c;
  w -> x@a' b + w@a' d + w'@c' b + y@c' d;
  y -> x@b' b + w@b' d + w'@d' b + y@d' d;
}
"""

TEXT = LORENTZ + MINKOWSKI + MAPS
