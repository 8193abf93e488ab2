
program ipduplex
  input integer :: n = 48, reps = 5
  integer :: i, r
  real :: u(1:n), v(1:n)
  real :: total
  do i = 1, n
    u(i) = 1.0 + real(i) * 0.01
    v(i) = 0.0
  end do
  do r = 1, reps
    do i = 1, n
      call bump(n, i, u)
      call bump(n, i, u)
      v(i) = v(i) * 0.5
      call mix(n, i, u, v)
    end do
  end do
  total = 0.0
  do i = 1, n
    total = total + u(i) + v(i)
  end do
  print total
end program

subroutine bump(m, j, x)
  integer :: m, j
  real :: x(1:m)
  x(j) = x(j) * 0.999 + 0.001
end subroutine

subroutine mix(m, j, x, y)
  integer :: m, j
  real :: x(1:m), y(1:m)
  y(j) = y(j) + x(j) * 0.25
end subroutine
