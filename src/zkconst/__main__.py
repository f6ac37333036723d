import gc
import sys

from .cli import main

# the interpreter's shutdown collections would traverse every tracked object
# after the answer is out; a frozen heap leaves them none.  Only this entry
# freezes, so a library caller's heap stays as it is
try:
    sys.exit(main())
finally:
    gc.freeze()
