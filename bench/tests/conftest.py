from bench.spec import import_program

# the tests build small lakes through the program; put src/ on the path
# the way bench.run does, so a bare `pytest bench/tests` works too
import_program()
